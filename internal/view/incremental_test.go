package view

import (
	"math/rand"
	"sort"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
)

// ref renders a ref ID as its view tuple.
func ref(views []*View, id int) string {
	r, _ := Resolve(views, id)
	return r.Tuple.String()
}

func TestMaintainerBasics(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}, db)
	m := NewMaintainer(views)

	johnXML := TupleRef{View: 0, Tuple: tup("John", "XML")}
	if !m.Alive(rid(views, johnXML)) {
		t.Fatal("fresh maintainer reports dead tuple")
	}
	// Kill one derivation: still alive.
	died := m.Delete(tid(db, relation.TupleID{Relation: "T1", Tuple: tup("John", "TKDE")}))
	// John/CUBE dies (single derivation via TKDE); John/XML survives via
	// TODS.
	if len(died) != 1 || ref(views, died[0]) != "(John,CUBE)" {
		t.Errorf("died = %v", died)
	}
	if !m.Alive(rid(views, johnXML)) {
		t.Error("John/XML should survive one derivation loss")
	}
	// Kill the second derivation.
	died = m.Delete(tid(db, relation.TupleID{Relation: "T1", Tuple: tup("John", "TODS")}))
	if len(died) != 1 || ref(views, died[0]) != "(John,XML)" {
		t.Errorf("died = %v", died)
	}
	if m.Alive(rid(views, johnXML)) {
		t.Error("John/XML should be dead")
	}
	if m.DeadCount() != 2 || m.DeletedCount() != 2 {
		t.Errorf("counts = %d dead, %d deleted", m.DeadCount(), m.DeletedCount())
	}
	// Idempotent delete.
	if got := m.Delete(tid(db, relation.TupleID{Relation: "T1", Tuple: tup("John", "TODS")})); len(got) != 0 {
		t.Errorf("re-delete returned %v", got)
	}
}

func TestMaintainerUndelete(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}, db)
	m := NewMaintainer(views)
	id1 := relation.TupleID{Relation: "T1", Tuple: tup("John", "TKDE")}
	id2 := relation.TupleID{Relation: "T1", Tuple: tup("John", "TODS")}
	m.Delete(tid(db, id1))
	m.Delete(tid(db, id2))
	revived := m.Undelete(tid(db, id2))
	if len(revived) != 1 || ref(views, revived[0]) != "(John,XML)" {
		t.Errorf("revived = %v", revived)
	}
	if !m.Alive(rid(views, TupleRef{View: 0, Tuple: tup("John", "XML")})) {
		t.Error("John/XML not alive after undelete")
	}
	// Undelete of never-deleted tuple is a no-op.
	if got := m.Undelete(tid(db, relation.TupleID{Relation: "T1", Tuple: tup("Joe", "TKDE")})); len(got) != 0 {
		t.Errorf("no-op undelete returned %v", got)
	}
	// Full rollback restores everything.
	m.Undelete(tid(db, id1))
	if m.DeadCount() != 0 || m.DeletedCount() != 0 {
		t.Errorf("counts after rollback: %d dead, %d deleted", m.DeadCount(), m.DeletedCount())
	}
}

func TestMaintainerUnknownRef(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}, db)
	m := NewMaintainer(views)
	if m.Alive(rid(views, TupleRef{View: 0, Tuple: tup("Nobody", "X")})) {
		t.Error("unknown ref reported alive")
	}
}

// TestMaintainerClone: a clone carries the original's deletion state but
// mutates independently in both directions.
func TestMaintainerClone(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}, db)
	m := NewMaintainer(views)
	id1 := relation.TupleID{Relation: "T1", Tuple: tup("John", "TKDE")}
	id2 := relation.TupleID{Relation: "T1", Tuple: tup("John", "TODS")}
	johnXML := TupleRef{View: 0, Tuple: tup("John", "XML")}

	m.Delete(tid(db, id1))
	c := m.Clone()
	if c.DeletedCount() != 1 || c.DeadCount() != m.DeadCount() {
		t.Fatalf("clone state: %d deleted, %d dead", c.DeletedCount(), c.DeadCount())
	}

	// Mutating the clone leaves the original untouched.
	if died := c.Delete(tid(db, id2)); len(died) != 1 || ref(views, died[0]) != "(John,XML)" {
		t.Errorf("clone delete died = %v", died)
	}
	if !m.Alive(rid(views, johnXML)) {
		t.Error("clone mutation leaked into original")
	}
	if m.DeletedCount() != 1 {
		t.Errorf("original deleted count = %d, want 1", m.DeletedCount())
	}

	// Mutating the original leaves the clone's view of id2 intact.
	m.Undelete(tid(db, id1))
	if c.Alive(rid(views, johnXML)) {
		t.Error("original mutation leaked into clone")
	}
	// Rolling the clone all the way back restores liveness without
	// touching the original's counts.
	c.Undelete(tid(db, id1))
	c.Undelete(tid(db, id2))
	if !c.Alive(rid(views, johnXML)) || c.DeadCount() != 0 || c.DeletedCount() != 0 {
		t.Errorf("clone rollback: alive=%v dead=%d deleted=%d", c.Alive(rid(views, johnXML)), c.DeadCount(), c.DeletedCount())
	}
	if m.DeletedCount() != 0 || m.DeadCount() != 0 {
		t.Errorf("original counts after its own rollback: %d deleted, %d dead", m.DeletedCount(), m.DeadCount())
	}
}

// TestMaintainerMatchesReEvaluation drives a random delete/undelete
// sequence and cross-checks every view tuple's liveness against full
// re-evaluation after every step.
func TestMaintainerMatchesReEvaluation(t *testing.T) {
	db := fig1DB()
	qs := []*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
		cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)"),
	}
	views, _ := Materialize(qs, db)
	m := NewMaintainer(views)
	all := db.AllTuples()
	rng := rand.New(rand.NewSource(99))
	deleted := map[string]relation.TupleID{}
	for step := 0; step < 60; step++ {
		id := all[rng.Intn(len(all))]
		if _, isDel := deleted[id.Key()]; isDel && rng.Intn(2) == 0 {
			m.Undelete(tid(db, id))
			delete(deleted, id.Key())
		} else {
			m.Delete(tid(db, id))
			deleted[id.Key()] = id
		}
		// Cross-check against re-evaluation.
		var delList []relation.TupleID
		for _, d := range deleted {
			delList = append(delList, d)
		}
		sort.Slice(delList, func(i, j int) bool { return delList[i].Key() < delList[j].Key() })
		db2 := db.Without(delList)
		for _, v := range views {
			res2 := cq.MustEvaluate(v.Query, db2)
			for _, ans := range v.Result.Answers() {
				ref := TupleRef{View: v.Index, Tuple: ans.Tuple}
				if got, want := m.Alive(rid(views, ref)), res2.Contains(ans.Tuple); got != want {
					t.Fatalf("step %d: %s alive=%v, reeval=%v (deleted %v)", step, ref, got, want, delList)
				}
			}
		}
	}
}
