package core

import (
	"context"
	"errors"
	"testing"
)

// TestDualBoundBelowOptimum: the dual bound never exceeds the exact
// optimum, across workload families, seeds, and weights.
func TestDualBoundBelowOptimum(t *testing.T) {
	makers := map[string]func(*testing.T, int64, int) *Problem{
		"star":  starProblem,
		"chain": chainProblem,
		"pivot": pivotProblem,
	}
	for name, mk := range makers {
		for seed := int64(1); seed <= 6; seed++ {
			p := mk(t, seed, 3)
			if p.Delta.Len() == 0 {
				continue
			}
			lb, err := DualBound(p)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := (&RedBlueExact{}).Solve(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			optCost := p.Evaluate(opt).SideEffect
			if lb > optCost+1e-9 {
				t.Errorf("%s/%d: dual bound %v exceeds optimum %v", name, seed, lb, optCost)
			}
			if lb < 0 {
				t.Errorf("%s/%d: negative bound %v", name, seed, lb)
			}
		}
	}
}

func TestDualBoundWeighted(t *testing.T) {
	p := pivotProblem(t, 3, 3)
	if p.Delta.Len() == 0 {
		t.Skip("empty deletion")
	}
	for _, ref := range p.PreservedRefs() {
		p.SetWeight(ref, 3)
	}
	lb, err := DualBound(p)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := (&RedBlueExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if optCost := p.Evaluate(opt).SideEffect; lb > optCost+1e-9 {
		t.Errorf("weighted dual bound %v exceeds optimum %v", lb, optCost)
	}
}

func TestDualBoundRequiresKeyPreserving(t *testing.T) {
	p := fig1Q3Problem(t)
	if _, err := DualBound(p); !errors.Is(err, ErrNotKeyPreserving) {
		t.Errorf("err = %v, want ErrNotKeyPreserving", err)
	}
}

// TestDualBoundTightOnFreeInstances: when a requested view tuple shares
// no base tuple with any preserved one, the bound is 0 and the optimum is
// 0 too.
func TestDualBoundZeroWhenFree(t *testing.T) {
	p := pivotProblem(t, 1, 1)
	if p.Delta.Len() == 0 {
		t.Skip("empty deletion")
	}
	lb, err := DualBound(p)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := (&RedBlueExact{}).Solve(context.Background(), p)
	optCost := p.Evaluate(opt).SideEffect
	if optCost == 0 && lb != 0 {
		t.Errorf("optimum 0 but bound %v", lb)
	}
}

func TestPortfolioPicksBest(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := chainProblem(t, seed, 3)
		if p.Delta.Len() == 0 {
			continue
		}
		pf := &Portfolio{}
		sol, err := pf.Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		rep := p.Evaluate(sol)
		if !rep.Feasible {
			t.Fatal("portfolio infeasible")
		}
		// Portfolio is at least as good as each member.
		for _, s := range ApproxSolvers() {
			ms, err := s.Solve(context.Background(), p)
			if err != nil {
				continue
			}
			if mr := p.Evaluate(ms); mr.Feasible && mr.SideEffect < rep.SideEffect-1e-9 {
				t.Errorf("seed %d: member %s (%v) beats portfolio (%v)", seed, s.Name(), mr.SideEffect, rep.SideEffect)
			}
		}
	}
}

func TestPortfolioSkipsFailingSolvers(t *testing.T) {
	p := fig1Q4Problem(t)
	// DPTree errors on this non-pivot instance; greedy succeeds.
	pf := &Portfolio{Solvers: []Solver{&DPTree{}, &Greedy{}}}
	sol, err := pf.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Evaluate(sol).Feasible {
		t.Error("portfolio result infeasible")
	}
	// All failing: first error surfaces.
	pfBad := &Portfolio{Solvers: []Solver{&DPTree{}}}
	if _, err := pfBad.Solve(context.Background(), p); !errors.Is(err, ErrNotPivotForest) {
		t.Errorf("err = %v, want ErrNotPivotForest", err)
	}
}

func TestPortfolioName(t *testing.T) {
	if (&Portfolio{}).Name() != "portfolio" {
		t.Error("name")
	}
}

// TestPortfolioParallelMatchesSequential: concurrency must not change the
// outcome (run under -race in CI).
func TestPortfolioParallelMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := starProblem(t, seed, 3)
		if p.Delta.Len() == 0 {
			continue
		}
		seq, err := (&Portfolio{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		par, err := (&Portfolio{Parallel: true}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if p.Evaluate(seq).SideEffect != p.Evaluate(par).SideEffect {
			t.Errorf("seed %d: sequential %v != parallel %v", seed,
				p.Evaluate(seq).SideEffect, p.Evaluate(par).SideEffect)
		}
	}
}
