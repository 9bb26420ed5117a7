package view

import (
	"math/rand"
	"testing"
	"testing/quick"

	"delprop/internal/cq"
	"delprop/internal/relation"
)

// TestSurvivesAntiMonotone: enlarging the deleted set never revives a view
// tuple.
func TestSurvivesAntiMonotone(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
		cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)"),
	}, db)
	all := db.AllTuples()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var small, large []relation.TupleID
		for _, id := range all {
			r := rng.Intn(3)
			if r == 0 {
				small = append(small, id)
			}
			if r <= 1 {
				large = append(large, id)
			}
		}
		large = append(large, small...)
		smallSet, largeSet := idSet(db, small), idSet(db, large)
		for _, v := range views {
			for _, ans := range v.Result.Answers() {
				if !Survives(ans, smallSet) && Survives(ans, largeSet) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMaintainerDeleteUndeleteInverse: any delete sequence followed by its
// reverse restores full liveness.
func TestMaintainerDeleteUndeleteInverse(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
	}, db)
	all := db.AllTuples()
	f := func(seed int64, n uint8) bool {
		m := NewMaintainer(views)
		rng := rand.New(rand.NewSource(seed))
		var seq []relation.TupleID
		for i := 0; i < int(n%12); i++ {
			seq = append(seq, all[rng.Intn(len(all))])
		}
		for _, id := range seq {
			m.Delete(tid(db, id))
		}
		for i := len(seq) - 1; i >= 0; i-- {
			m.Undelete(tid(db, seq[i]))
		}
		if m.DeadCount() != 0 || m.DeletedCount() != 0 {
			return false
		}
		for _, v := range views {
			for _, ans := range v.Result.Answers() {
				if !m.Alive(rid(views, TupleRef{View: v.Index, Tuple: ans.Tuple})) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSideEffectSplitsCleanly: requested + collateral removals partition
// the dead view tuples.
func TestSideEffectPartition(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
	}, db)
	del := NewDeletion(TupleRef{View: 0, Tuple: tup("John", "XML")})
	all := db.AllTuples()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ids []relation.TupleID
		for _, id := range all {
			if rng.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}
		req, coll := sideEffect(views, del, ids)
		set := idSet(db, ids)
		dead := 0
		for _, v := range views {
			for _, ans := range v.Result.Answers() {
				if !Survives(ans, set) {
					dead++
				}
			}
		}
		return len(req)+len(coll) == dead
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
