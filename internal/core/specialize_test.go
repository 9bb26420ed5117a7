package core

import (
	"context"
	"testing"

	"delprop/internal/view"
	"delprop/internal/workload"
)

// TestSpecializeSharesSkeleton: a specialized problem must share every
// immutable artifact of its parent by pointer and carry only the new Delta.
func TestSpecializeSharesSkeleton(t *testing.T) {
	w := workload.Fig1()
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	delta := workload.SampleDeletion(p.Views, 2, 7)
	p2, err := p.Specialize(delta)
	if err != nil {
		t.Fatal(err)
	}
	if p2.DB != p.DB || &p2.Queries[0] == nil || p2.Views[0] != p.Views[0] {
		t.Fatal("specialized problem must share DB and views by pointer")
	}
	if p2.Inverted() != p.Inverted() {
		t.Error("specialized problem must share the inverted index")
	}
	if p2.IsKeyPreserving() != p.IsKeyPreserving() {
		t.Error("key-preserving verdict must carry over")
	}
	if p2.Delta != delta {
		t.Error("specialized problem must adopt the supplied delta")
	}
	if p2.weights != nil {
		t.Error("specialized problem must start with no weights")
	}
	if p.Delta.Len() != 0 {
		t.Error("specializing must not mutate the parent's delta")
	}
	if p2.skel != p.skel {
		t.Error("specialized problem must share the skeleton")
	}
}

// TestSpecializeValidatesDelta: a delta referencing a non-answer must be
// rejected exactly as NewProblem would reject it.
func TestSpecializeValidatesDelta(t *testing.T) {
	w := workload.Fig1()
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := view.NewDeletion(view.TupleRef{View: 0, Tuple: tup("NoSuch", "Tuple")})
	if _, err := p.Specialize(bad); err == nil {
		t.Fatal("expected validation error for a non-answer delta")
	}
	// nil delta degrades to an empty request, matching NewProblem.
	p2, err := p.Specialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Delta.Len() != 0 {
		t.Errorf("nil delta should specialize to empty, got %d refs", p2.Delta.Len())
	}
}

// TestQueryPropertiesMemoized: the classify verdicts are computed once per
// skeleton and shared with every Specialize derivative.
func TestQueryPropertiesMemoized(t *testing.T) {
	w := workload.Fig1()
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	props1, err := p.QueryProperties()
	if err != nil {
		t.Fatal(err)
	}
	if len(props1) != len(p.Queries) {
		t.Fatalf("want %d verdicts, got %d", len(p.Queries), len(props1))
	}
	p2, err := p.Specialize(workload.SampleDeletion(p.Views, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	props2, err := p2.QueryProperties()
	if err != nil {
		t.Fatal(err)
	}
	if &props1[0] != &props2[0] {
		t.Error("derivative must reuse the parent's memoized verdict slice")
	}
	// A bare literal (no holder) still computes, without memoization.
	lit := &Problem{DB: p.DB, Queries: p.Queries, Views: p.Views, Delta: view.NewDeletion()}
	if _, err := lit.QueryProperties(); err != nil {
		t.Fatalf("literal fallback: %v", err)
	}
}

// TestNewMaintainerIsolated: clones from the shared prototype must not see
// each other's deletions, and the literal fallback still works.
func TestNewMaintainerIsolated(t *testing.T) {
	w := workload.Fig1()
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := view.TupleRef{View: 0, Tuple: tup("John", "XML")}
	m1 := p.NewMaintainer()
	m2 := p.NewMaintainer()
	if m1 == m2 {
		t.Fatal("each NewMaintainer call must return an isolated clone")
	}
	ans, ok := p.Answer(ref)
	if !ok {
		t.Fatalf("%s is not an answer", ref)
	}
	for _, d := range ans.Derivations {
		for _, id := range d {
			m1.Delete(id)
		}
	}
	rid, _ := view.RefID(p.Views, ref)
	if m1.Alive(rid) {
		t.Error("deleting every derivation tuple must kill the answer on m1")
	}
	if !m2.Alive(rid) {
		t.Error("deletions on one clone leaked into its sibling")
	}
	lit := &Problem{DB: p.DB, Queries: p.Queries, Views: p.Views, Delta: view.NewDeletion()}
	if lit.NewMaintainer() == nil {
		t.Error("literal fallback must still build a maintainer")
	}
}

// TestSpecializeSolveMatchesCold: solving a specialized problem must give
// byte-identical deletions to a cold NewProblem on the same instance.
func TestSpecializeSolveMatchesCold(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		w := workload.Star(workload.StarConfig{Seed: seed, Relations: 3, HubValues: 4, Queries: 2, AtomsPerQuery: 2, RowsPerRelation: 14})
		skeleton, err := NewProblem(w.DB, w.Queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		delta := workload.SampleDeletion(skeleton.Views, 3, seed+100)
		warmP, err := skeleton.Specialize(delta)
		if err != nil {
			t.Fatal(err)
		}
		coldP, err := NewProblem(w.DB, w.Queries, delta)
		if err != nil {
			t.Fatal(err)
		}
		solver := &Greedy{}
		warmSol, err := solver.Solve(context.Background(), warmP)
		if err != nil {
			t.Fatal(err)
		}
		coldSol, err := solver.Solve(context.Background(), coldP)
		if err != nil {
			t.Fatal(err)
		}
		if warmSol.String() != coldSol.String() {
			t.Errorf("seed %d: warm %s != cold %s", seed, warmSol, coldSol)
		}
	}
}

// TestIsPivotForestMemoized: the pivot-forest verdict and layout are built
// once per skeleton; Specialize derivatives reuse them, so the classify
// check allocates nothing and every derivative's forest shares one layout.
func TestIsPivotForestMemoized(t *testing.T) {
	for _, tc := range []struct {
		name  string
		w     *workload.Workload
		pivot bool
	}{
		{"pivot", workload.Pivot(workload.PivotConfig{Seed: 1, Roots: 6, ChildrenPerRoot: 3, GrandPerChild: 2}), true},
		{"star", workload.Star(workload.StarConfig{Seed: 1, Relations: 3, HubValues: 3, RowsPerRelation: 6, Queries: 2, AtomsPerQuery: 2}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			skel, err := NewProblem(tc.w.DB, tc.w.Queries, nil)
			if err != nil {
				t.Fatal(err)
			}
			var derivs []*Problem
			for i := int64(0); i < 8; i++ {
				d, err := skel.Specialize(workload.SampleDeletion(skel.Views, 2, i))
				if err != nil {
					t.Fatal(err)
				}
				derivs = append(derivs, d)
			}
			if got := IsPivotForest(derivs[0]); got != tc.pivot {
				t.Fatalf("IsPivotForest = %v, want %v", got, tc.pivot)
			}
			i := 0
			allocs := testing.AllocsPerRun(20, func() {
				if IsPivotForest(derivs[i%len(derivs)]) != tc.pivot {
					t.Error("verdict changed across derivatives")
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("IsPivotForest on a derivative allocated %v times per call; the layout must not be rebuilt", allocs)
			}
			if !tc.pivot {
				return
			}
			f1, err1 := BuildPivotForest(derivs[1])
			f2, err2 := BuildPivotForest(derivs[2])
			if err1 != nil || err2 != nil || f1.pivotLayout != f2.pivotLayout {
				t.Error("derivatives must share one memoized forest layout")
			}
		})
	}
}
