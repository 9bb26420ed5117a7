package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"delprop/internal/relation"
	"delprop/internal/view"
)

func TestSourceExactFig1Q3(t *testing.T) {
	p := fig1Q3Problem(t)
	// (John,XML) has two derivations sharing no tuple; hitting both needs
	// 2 deletions... unless one tuple lies on both paths — here the paths
	// are {T1(John,TKDE),T2(TKDE,XML,30)} and {T1(John,TODS),
	// T2(TODS,XML,30)}, disjoint, so the optimum is 2.
	sol, err := (&SourceExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cost, feasible := p.SourceSideEffect(sol, nil)
	if !feasible || cost != 2 {
		t.Errorf("source optimum = %v feasible=%v, want 2/true", cost, feasible)
	}
}

func TestSourceExactFig1Q4(t *testing.T) {
	p := fig1Q4Problem(t)
	sol, err := (&SourceExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cost, feasible := p.SourceSideEffect(sol, nil)
	if !feasible || cost != 1 {
		t.Errorf("source optimum = %v feasible=%v, want 1/true", cost, feasible)
	}
}

func TestSourceExactSharedTuple(t *testing.T) {
	// Two requested view tuples sharing a source tuple: optimum 1.
	p := fig1Q4Problem(t)
	p.Delta.Add(view.TupleRef{View: 0, Tuple: tup("John", "TKDE", "CUBE")})
	sol, err := (&SourceExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cost, feasible := p.SourceSideEffect(sol, nil)
	if !feasible || cost != 1 {
		t.Errorf("shared-tuple optimum = %v feasible=%v, want 1 (delete T1(John,TKDE))", cost, feasible)
	}
	if sol.Deleted[0].String() != "T1(John,TKDE)" {
		t.Errorf("expected T1(John,TKDE), got %s", sol)
	}
}

func TestSourceExactWeighted(t *testing.T) {
	p := fig1Q4Problem(t)
	// Make the T1 tuple expensive: optimum switches to the T2 tuple.
	w := SourceWeights(func(id relation.TupleID) float64 {
		if id.String() == "T1(John,TKDE)" {
			return 10
		}
		return 1
	})
	sol, err := (&SourceExact{Weights: w}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cost, feasible := p.SourceSideEffect(sol, w)
	if !feasible || cost != 1 {
		t.Errorf("weighted optimum = %v, want 1 via T2 tuple", cost)
	}
	if sol.Deleted[0].Relation != "T2" {
		t.Errorf("expected T2 deletion, got %s", sol)
	}
}

func TestSourceExactTooLarge(t *testing.T) {
	p := fig1Q3Problem(t)
	if _, err := (&SourceExact{MaxCandidates: 1}).Solve(context.Background(), p); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestSourceGreedyFeasibleAndBounded(t *testing.T) {
	makers := map[string]func(*testing.T, int64, int) *Problem{
		"star":  starProblem,
		"chain": chainProblem,
		"pivot": pivotProblem,
	}
	for name, mk := range makers {
		for seed := int64(1); seed <= 5; seed++ {
			p := mk(t, seed, 3)
			if p.Delta.Len() == 0 {
				continue
			}
			g, err := (&SourceGreedy{}).Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, seed, err)
			}
			gc, feasible := p.SourceSideEffect(g, nil)
			if !feasible {
				t.Fatalf("%s/%d: greedy infeasible", name, seed)
			}
			e, err := (&SourceExact{}).Solve(context.Background(), p)
			if err != nil {
				if errors.Is(err, ErrTooLarge) {
					continue
				}
				t.Fatal(err)
			}
			ec, _ := p.SourceSideEffect(e, nil)
			if gc < ec-1e-9 {
				t.Fatalf("%s/%d: greedy %v beats exact %v", name, seed, gc, ec)
			}
			// ln(n) bound for greedy hitting set.
			nPaths := 0
			for _, ref := range p.Delta.Refs() {
				ans, _ := p.Answer(ref)
				nPaths += len(ans.Derivations)
			}
			bound := math.Log(float64(nPaths)) + 1
			if ec > 0 && gc > bound*ec+1e-9 {
				t.Errorf("%s/%d: greedy ratio %v exceeds ln(n)+1 = %v", name, seed, gc/ec, bound)
			}
		}
	}
}

func TestSourceSingleQueryExact(t *testing.T) {
	p := fig1Q4Problem(t)
	sol, err := (&SourceSingleQueryExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cost, feasible := p.SourceSideEffect(sol, nil)
	if !feasible || cost != 1 {
		t.Errorf("single-query source = %v/%v", cost, feasible)
	}
	// Multi-deletion path still exact.
	p.Delta.Add(view.TupleRef{View: 0, Tuple: tup("Joe", "TKDE", "XML")})
	sol, err = (&SourceSingleQueryExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cost, feasible = p.SourceSideEffect(sol, nil)
	// Optimal: delete T2(TKDE,XML,30), killing both requested tuples.
	if !feasible || cost != 1 {
		t.Errorf("multi source = %v/%v, want 1/true", cost, feasible)
	}
	// Preconditions.
	w := fig1Q3Problem(t)
	if _, err := (&SourceSingleQueryExact{}).Solve(context.Background(), w); !errors.Is(err, ErrNotKeyPreserving) {
		t.Errorf("err = %v, want ErrNotKeyPreserving", err)
	}
	multi := starProblem(t, 1, 2)
	if _, err := (&SourceSingleQueryExact{}).Solve(context.Background(), multi); err == nil {
		t.Error("multi-query accepted")
	}
}

// TestSourceVsViewObjectivesDiffer documents the paper's distinction: the
// source-optimal and view-optimal deletions can disagree.
func TestSourceVsViewObjectivesDiffer(t *testing.T) {
	p := fig1Q4Problem(t)
	src, err := (&SourceExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	vw, err := (&BruteForce{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Both have source cost 1 here, but the view side-effects differ when
	// the source solver picks the T2 tuple; at minimum the two objectives
	// must each be optimal in their own terms.
	sc, _ := p.SourceSideEffect(src, nil)
	vc, _ := p.SourceSideEffect(vw, nil)
	if sc > vc {
		t.Errorf("source-exact deleted more tuples (%v) than the view optimum (%v)", sc, vc)
	}
	if p.Evaluate(vw).SideEffect > p.Evaluate(src).SideEffect {
		t.Error("view optimum has worse view side-effect than the source optimum")
	}
}
