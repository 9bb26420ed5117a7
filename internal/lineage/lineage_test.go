package lineage

import (
	"errors"
	"strings"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
)

func tup(vals ...string) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.Value(v)
	}
	return t
}

func fig1Views(t *testing.T) []*view.View {
	t.Helper()
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
	views, err := view.Materialize([]*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	return views
}

func TestWhyProvenance(t *testing.T) {
	views := fig1Views(t)
	// (John, XML) has two witnesses (TKDE path and TODS path).
	why, err := Why(views, view.TupleRef{View: 0, Tuple: tup("John", "XML")})
	if err != nil {
		t.Fatal(err)
	}
	if len(why) != 2 {
		t.Fatalf("witnesses = %d, want 2: %v", len(why), why)
	}
	for _, w := range why {
		if len(w) != 2 {
			t.Errorf("witness size = %d, want 2: %v", len(w), w)
		}
	}
	// (Joe, XML) has one witness.
	why, err = Why(views, view.TupleRef{View: 0, Tuple: tup("Joe", "XML")})
	if err != nil {
		t.Fatal(err)
	}
	if len(why) != 1 {
		t.Errorf("Joe/XML witnesses = %d, want 1", len(why))
	}
}

func TestWhyUnknown(t *testing.T) {
	views := fig1Views(t)
	if _, err := Why(views, view.TupleRef{View: 0, Tuple: tup("Nobody", "X")}); !errors.Is(err, ErrUnknown) {
		t.Errorf("err = %v, want ErrUnknown", err)
	}
	if _, err := Why(views, view.TupleRef{View: 9, Tuple: tup("x")}); !errors.Is(err, ErrUnknown) {
		t.Errorf("err = %v, want ErrUnknown", err)
	}
}

func TestWhereProvenance(t *testing.T) {
	views := fig1Views(t)
	ref := view.TupleRef{View: 0, Tuple: tup("Joe", "XML")}
	// Column 0 (x) comes from T1(Joe,TKDE)[0].
	cells, err := Where(views, ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Position != 0 || cells[0].Tuple.Relation != "T1" {
		t.Errorf("where[0] = %v", cells)
	}
	// Column 1 (z) comes from T2(TKDE,XML,30)[1].
	cells, err = Where(views, ref, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Position != 1 || cells[0].Tuple.Relation != "T2" {
		t.Errorf("where[1] = %v", cells)
	}
	// Multi-derivation tuple: column 1 of (John, XML) has two source
	// cells (TKDE and TODS rows of T2).
	cells, err = Where(views, view.TupleRef{View: 0, Tuple: tup("John", "XML")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Errorf("multi-derivation where = %v", cells)
	}
	// Out-of-range column.
	if _, err := Where(views, ref, 7); !errors.Is(err, ErrUnknown) {
		t.Errorf("err = %v, want ErrUnknown", err)
	}
}

func TestWhereJoinVariableBothSides(t *testing.T) {
	// A head variable occurring in two atoms has where-provenance in
	// both.
	db := relation.NewInstance(
		relation.MustSchema("A", []string{"k", "v"}, []int{0, 1}),
		relation.MustSchema("B", []string{"k", "v"}, []int{0, 1}),
	)
	db.MustInsert("A", "1", "x")
	db.MustInsert("B", "1", "y")
	views, err := view.Materialize([]*cq.Query{cq.MustParse("Q(k, a, b) :- A(k, a), B(k, b)")}, db)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := Where(views, view.TupleRef{View: 0, Tuple: tup("1", "x", "y")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Errorf("join variable where = %v, want cells in A and B", cells)
	}
}

func TestExplainAndString(t *testing.T) {
	views := fig1Views(t)
	rep, err := Explain(views, view.TupleRef{View: 0, Tuple: tup("John", "XML")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Why) != 2 || len(rep.WhereByColumn) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	s := rep.String()
	for _, want := range []string{"lineage of V0(John,XML)", "why[0]", "why[1]", "where[0]", "where[1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestAffectedBy(t *testing.T) {
	views := fig1Views(t)
	refs := AffectedBy(views, relation.TupleID{Relation: "T2", Tuple: tup("TKDE", "XML", "30")})
	// Kills XML answers of Joe/John/Tom derived via TKDE.
	if len(refs) != 3 {
		t.Fatalf("affected = %v", refs)
	}
	for _, r := range refs {
		if r.Tuple[1] != "XML" {
			t.Errorf("unexpected affected tuple %v", r)
		}
	}
	if got := AffectedBy(views, relation.TupleID{Relation: "T1", Tuple: tup("No", "One")}); len(got) != 0 {
		t.Errorf("unknown tuple affected = %v", got)
	}
}

// TestWhyAgreesWithDeletion: deleting all tuples of every witness kills
// the view tuple; deleting all but one witness leaves it alive.
func TestWhyAgreesWithDeletionSemantics(t *testing.T) {
	views := fig1Views(t)
	ref := view.TupleRef{View: 0, Tuple: tup("John", "XML")}
	why, _ := Why(views, ref)
	ans, _ := views[0].Result.Lookup(ref.Tuple)
	// Remove first witness only: survives.
	ids := func(w []relation.TupleID) relation.IDSet {
		var s relation.IDSet
		for _, id := range w {
			t, _ := views[0].Result.DB.ID(id)
			s.Add(t)
		}
		return s
	}
	if !view.Survives(ans, ids(why[0])) {
		t.Error("killing one witness should not kill a two-witness tuple")
	}
	// Remove one tuple from every witness: dies.
	var cut []relation.TupleID
	for _, w := range why {
		cut = append(cut, w[0])
	}
	if view.Survives(ans, ids(cut)) {
		t.Error("cutting every witness should kill the tuple")
	}
}
