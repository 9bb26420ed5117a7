package view

import (
	"errors"
	"strings"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
)

func tup(vals ...string) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.Value(v)
	}
	return t
}

// tid resolves a tuple to its ID in db; absent tuples get an ID no tuple
// has.
func tid(db *relation.Instance, id relation.TupleID) relation.TID {
	t, ok := db.ID(id)
	if !ok {
		return relation.TID(db.NumIDs())
	}
	return t
}

// idSet resolves tuples to the ID set Survives takes.
func idSet(db *relation.Instance, ids []relation.TupleID) relation.IDSet {
	var s relation.IDSet
	for _, id := range ids {
		s.Add(tid(db, id))
	}
	return s
}

// rid resolves a view tuple to its ref ID (-1 when it is none).
func rid(views []*View, ref TupleRef) int {
	id, ok := RefID(views, ref)
	if !ok {
		return -1
	}
	return id
}

// sideEffect splits the view tuples that deleting the given source tuples
// destroys into requested (in del) and collateral ones, from provenance.
func sideEffect(views []*View, del *Deletion, deleted []relation.TupleID) (requested, collateral []TupleRef) {
	set := idSet(views[0].Result.DB, deleted)
	for _, v := range views {
		for _, ans := range v.Result.Answers() {
			if Survives(ans, set) {
				continue
			}
			ref := TupleRef{View: v.Index, Tuple: ans.Tuple}
			if del != nil && del.Contains(ref) {
				requested = append(requested, ref)
			} else {
				collateral = append(collateral, ref)
			}
		}
	}
	return requested, collateral
}

func fig1DB() *relation.Instance {
	db := relation.NewInstance(
		relation.MustSchema("T1", []string{"AuName", "Journal"}, []int{0, 1}),
		relation.MustSchema("T2", []string{"Journal", "Topic", "Papers"}, []int{0, 1}),
	)
	db.MustInsert("T1", "Joe", "TKDE")
	db.MustInsert("T1", "John", "TKDE")
	db.MustInsert("T1", "Tom", "TKDE")
	db.MustInsert("T1", "John", "TODS")
	db.MustInsert("T2", "TKDE", "XML", "30")
	db.MustInsert("T2", "TKDE", "CUBE", "30")
	db.MustInsert("T2", "TODS", "XML", "30")
	return db
}

func TestMaterialize(t *testing.T) {
	db := fig1DB()
	qs := []*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
		cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)"),
	}
	views, err := Materialize(qs, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[0].Index != 0 || views[1].Index != 1 {
		t.Fatalf("views = %v", views)
	}
	if TotalSize(views) != 13 { // 6 + 7 from Fig 1
		t.Errorf("TotalSize = %d, want 13", TotalSize(views))
	}
	if MaxArity(views) != 3 {
		t.Errorf("MaxArity = %d, want 3", MaxArity(views))
	}
	// Bad query aborts.
	if _, err := Materialize([]*cq.Query{cq.MustParse("Q(x) :- Nope(x)")}, db); err == nil {
		t.Error("Materialize accepted invalid query")
	}
}

func TestMaxArityEmpty(t *testing.T) {
	if MaxArity(nil) != 0 {
		t.Error("MaxArity(nil) != 0")
	}
}

func TestDeletionBasics(t *testing.T) {
	r1 := TupleRef{View: 0, Tuple: tup("John", "XML")}
	r2 := TupleRef{View: 1, Tuple: tup("John", "XML")}
	d := NewDeletion(r1, r1, r2)
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2 (dedup)", d.Len())
	}
	if !d.Contains(r1) || !d.Contains(r2) {
		t.Error("Contains wrong")
	}
	if d.Contains(TupleRef{View: 0, Tuple: tup("x")}) {
		t.Error("Contains false positive")
	}
	if got := d.Refs(); len(got) != 2 || got[0].Key() != r1.Key() {
		t.Errorf("Refs = %v", got)
	}
	pv := d.PerView()
	if len(pv[0]) != 1 || len(pv[1]) != 1 {
		t.Errorf("PerView = %v", pv)
	}
	if !strings.Contains(d.String(), "V0(John,XML)") {
		t.Errorf("String = %q", d.String())
	}
}

func TestTupleRefKeyDistinctAcrossViews(t *testing.T) {
	a := TupleRef{View: 0, Tuple: tup("x")}
	b := TupleRef{View: 1, Tuple: tup("x")}
	if a.Key() == b.Key() {
		t.Error("TupleRef key collision across views")
	}
}

func TestDeletionValidate(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}, db)
	ok := NewDeletion(TupleRef{View: 0, Tuple: tup("John", "XML")})
	if err := ok.Validate(views); err != nil {
		t.Errorf("valid deletion rejected: %v", err)
	}
	bad := NewDeletion(TupleRef{View: 0, Tuple: tup("Nobody", "XML")})
	if err := bad.Validate(views); !errors.Is(err, ErrUnknownViewTuple) {
		t.Errorf("err = %v, want ErrUnknownViewTuple", err)
	}
	oob := NewDeletion(TupleRef{View: 5, Tuple: tup("John", "XML")})
	if err := oob.Validate(views); !errors.Is(err, ErrUnknownViewTuple) {
		t.Errorf("err = %v, want ErrUnknownViewTuple", err)
	}
}

func TestSurvives(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}, db)
	res := views[0].Result
	johnXML, _ := res.Lookup(tup("John", "XML"))
	// John/XML has derivations via TKDE and TODS; killing only TKDE leaves
	// the TODS derivation alive.
	del := idSet(db, []relation.TupleID{{Relation: "T1", Tuple: tup("John", "TKDE")}})
	if !Survives(johnXML, del) {
		t.Error("John/XML should survive deleting T1(John,TKDE)")
	}
	del2 := idSet(db, []relation.TupleID{
		{Relation: "T1", Tuple: tup("John", "TKDE")},
		{Relation: "T1", Tuple: tup("John", "TODS")},
	})
	if Survives(johnXML, del2) {
		t.Error("John/XML should die when both T1 tuples go")
	}
	joeXML, _ := res.Lookup(tup("Joe", "XML"))
	del3 := idSet(db, []relation.TupleID{{Relation: "T2", Tuple: tup("TKDE", "XML", "30")}})
	if Survives(joeXML, del3) {
		t.Error("Joe/XML should die with T2(TKDE,XML,30)")
	}
}

// TestSurvivesMatchesReEvaluation: provenance-based survival must agree
// with full re-evaluation on D\ΔD, for assorted deletions.
func TestSurvivesMatchesReEvaluation(t *testing.T) {
	db := fig1DB()
	qs := []*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
		cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)"),
	}
	views, _ := Materialize(qs, db)
	all := db.AllTuples()
	// Try every single-tuple deletion and a few pairs.
	var deletions [][]relation.TupleID
	for _, id := range all {
		deletions = append(deletions, []relation.TupleID{id})
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			deletions = append(deletions, []relation.TupleID{all[i], all[j]})
		}
	}
	for _, del := range deletions {
		set := idSet(db, del)
		db2 := db.Without(del)
		for vi, v := range views {
			res2 := cq.MustEvaluate(v.Query, db2)
			for _, ans := range v.Result.Answers() {
				got := Survives(ans, set)
				want := res2.Contains(ans.Tuple)
				if got != want {
					t.Fatalf("del=%v view=%d tuple=%v: Survives=%v reeval=%v", del, vi, ans.Tuple, got, want)
				}
			}
		}
	}
}

func TestInvertedIndex(t *testing.T) {
	db := fig1DB()
	qs := []*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}
	views, _ := Materialize(qs, db)
	idx := BuildInvertedIndex(views)
	// Every base tuple participates in some view tuple here.
	if idx.Len() != db.Size() {
		t.Errorf("idx.Len = %d, want %d", idx.Len(), db.Size())
	}
	// T1(John,TKDE) occurs in John/XML (non-critical: TODS path exists) and
	// John/CUBE (critical).
	occ := idx.Occurrences(tid(db, relation.TupleID{Relation: "T1", Tuple: tup("John", "TKDE")}))
	if len(occ) != 2 {
		t.Fatalf("occurrences = %v", occ)
	}
	crit := map[string]bool{}
	for _, o := range occ {
		ref, _ := Resolve(views, int(o.Ref))
		crit[ref.Tuple.String()] = o.Critical
	}
	if !crit["(John,CUBE)"] {
		t.Error("John/CUBE occurrence should be critical")
	}
	if crit["(John,XML)"] {
		t.Error("John/XML occurrence should be non-critical (second derivation)")
	}
	// Unknown tuple: no occurrences.
	if got := idx.Occurrences(tid(db, relation.TupleID{Relation: "T1", Tuple: tup("Nobody", "X")})); got != nil {
		t.Errorf("unknown tuple occurrences = %v", got)
	}
}

func TestInvertedIndexKeyPreservingAllCritical(t *testing.T) {
	db := fig1DB()
	qs := []*cq.Query{cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")}
	views, _ := Materialize(qs, db)
	idx := BuildInvertedIndex(views)
	for id := relation.TID(0); int(id) < db.NumIDs(); id++ {
		for _, o := range idx.Occurrences(id) {
			if !o.Critical {
				t.Errorf("key-preserving view has non-critical occurrence: %v in %v", id, o.Ref)
			}
		}
	}
}

func TestSideEffectPaperExample(t *testing.T) {
	// Paper Section II.C: ΔV = (John, XML) on Q3. Removing (John,TKDE) and
	// (John,TODS) from T1 kills John/XML and John/CUBE: side-effect 1.
	db := fig1DB()
	qs := []*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}
	views, _ := Materialize(qs, db)
	del := NewDeletion(TupleRef{View: 0, Tuple: tup("John", "XML")})
	req, coll := sideEffect(views, del, []relation.TupleID{
		{Relation: "T1", Tuple: tup("John", "TKDE")},
		{Relation: "T1", Tuple: tup("John", "TODS")},
	})
	if len(req) != 1 || req[0].Tuple.String() != "(John,XML)" {
		t.Errorf("requested removed = %v", req)
	}
	if len(coll) != 1 || coll[0].Tuple.String() != "(John,CUBE)" {
		t.Errorf("collateral = %v", coll)
	}
	// Alternative optimum: (John,TKDE) from T1 and (TODS,XML,30) from T2;
	// side-effect 1 (Tom/XML? no — Joe,Tom go via TKDE... check: kills
	// John/CUBE? no. Kills John/XML (both derivations) and no other TKDE
	// path... T2(TODS,XML,30) only feeds John/XML. T1(John,TKDE) feeds
	// John/XML and John/CUBE => collateral John/CUBE. side-effect 1.)
	req, coll = sideEffect(views, del, []relation.TupleID{
		{Relation: "T1", Tuple: tup("John", "TKDE")},
		{Relation: "T2", Tuple: tup("TODS", "XML", "30")},
	})
	if len(req) != 1 || len(coll) != 1 {
		t.Errorf("alt optimum: req=%v coll=%v", req, coll)
	}
	// A worse solution: delete T2(TKDE,XML,30) and T2(TODS,XML,30): kills
	// Joe/XML, Tom/XML, John/XML => collateral 2.
	req, coll = sideEffect(views, del, []relation.TupleID{
		{Relation: "T2", Tuple: tup("TKDE", "XML", "30")},
		{Relation: "T2", Tuple: tup("TODS", "XML", "30")},
	})
	if len(req) != 1 || len(coll) != 2 {
		t.Errorf("worse solution: req=%v coll=%v", req, coll)
	}
}

func TestSideEffectNilDeletion(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")}, db)
	req, coll := sideEffect(views, nil, []relation.TupleID{{Relation: "T1", Tuple: tup("Joe", "TKDE")}})
	if len(req) != 0 || len(coll) != 2 {
		t.Errorf("nil deletion: req=%v coll=%v", req, coll)
	}
}
