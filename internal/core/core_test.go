package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"delprop/internal/relation"
	"delprop/internal/view"
	"delprop/internal/workload"
)

func tup(vals ...string) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.Value(v)
	}
	return t
}

// fig1Q3Problem is the paper's running example: ΔV = (John, XML) on Q3.
func fig1Q3Problem(t *testing.T) *Problem {
	t.Helper()
	w := workload.Fig1()
	p, err := NewProblem(w.DB, w.Queries[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Delta.Add(view.TupleRef{View: 0, Tuple: tup("John", "XML")})
	if err := p.Delta.Validate(p.Views); err != nil {
		t.Fatal(err)
	}
	return p
}

// fig1Q4Problem: ΔV = (John, TKDE, XML) on the key-preserving Q4.
func fig1Q4Problem(t *testing.T) *Problem {
	t.Helper()
	w := workload.Fig1()
	del := view.NewDeletion(view.TupleRef{View: 0, Tuple: tup("John", "TKDE", "XML")})
	p, err := NewProblem(w.DB, w.Queries[1:], del)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemBasics(t *testing.T) {
	w := workload.Fig1()
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsKeyPreserving() {
		t.Error("Q3 is not key-preserving; problem should report false")
	}
	if p.TotalViewSize() != 13 {
		t.Errorf("TotalViewSize = %d, want 13", p.TotalViewSize())
	}
	if p.MaxArity() != 3 {
		t.Errorf("MaxArity = %d", p.MaxArity())
	}
	// Invalid deletion is rejected.
	bad := view.NewDeletion(view.TupleRef{View: 0, Tuple: tup("nope", "x")})
	if _, err := NewProblem(w.DB, w.Queries, bad); err == nil {
		t.Error("invalid deletion accepted")
	}
	// Q4 alone is key-preserving.
	p4, err := NewProblem(w.DB, w.Queries[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p4.IsKeyPreserving() {
		t.Error("Q4-only problem should be key-preserving")
	}
}

func TestCandidateTuples(t *testing.T) {
	p := fig1Q3Problem(t)
	cands := p.CandidateTuples()
	// (John, XML) has derivations {T1(John,TKDE), T2(TKDE,XML,30)} and
	// {T1(John,TODS), T2(TODS,XML,30)} -> 4 candidates.
	if len(cands) != 4 {
		t.Fatalf("candidates = %v", cands)
	}
	p4 := fig1Q4Problem(t)
	if got := p4.CandidateTuples(); len(got) != 2 {
		t.Fatalf("Q4 candidates = %v", got)
	}
}

func TestEvaluatePaperExample(t *testing.T) {
	p := fig1Q3Problem(t)
	// Optimal: delete both John rows of T1 -> side-effect 1 (John, CUBE).
	sol := &Solution{Deleted: []relation.TupleID{
		{Relation: "T1", Tuple: tup("John", "TKDE")},
		{Relation: "T1", Tuple: tup("John", "TODS")},
	}}
	rep := p.Evaluate(sol)
	if !rep.Feasible || rep.SideEffect != 1 {
		t.Errorf("report = %+v", rep)
	}
	// Deleting only one John row leaves (John,XML) alive: infeasible.
	rep = p.Evaluate(&Solution{Deleted: sol.Deleted[:1]})
	if rep.Feasible || rep.BadRemaining != 1 {
		t.Errorf("partial report = %+v", rep)
	}
	if rep.Balanced != float64(rep.BadRemaining)+rep.SideEffect {
		t.Errorf("balanced arithmetic wrong: %+v", rep)
	}
}

func TestEvaluateMatchesReevaluation(t *testing.T) {
	for _, mk := range []func(*testing.T) *Problem{fig1Q3Problem, fig1Q4Problem} {
		p := mk(t)
		cands := p.DB.AllTuples()
		for mask := 0; mask < 1<<len(cands); mask++ {
			var del []relation.TupleID
			for i := range cands {
				if mask&(1<<i) != 0 {
					del = append(del, cands[i])
				}
			}
			sol := &Solution{Deleted: del}
			a := p.Evaluate(sol)
			b, err := p.EvaluateByReevaluation(sol)
			if err != nil {
				t.Fatal(err)
			}
			if a.Feasible != b.Feasible || a.SideEffect != b.SideEffect || a.BadRemaining != b.BadRemaining {
				t.Fatalf("mask %d: provenance %+v vs reeval %+v", mask, a, b)
			}
		}
	}
}

func TestBruteForceFig1Q3(t *testing.T) {
	p := fig1Q3Problem(t)
	sol, err := (&BruteForce{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Evaluate(sol)
	if !rep.Feasible {
		t.Fatal("brute-force solution infeasible")
	}
	// The paper states the minimum view side-effect is 1.
	if rep.SideEffect != 1 {
		t.Errorf("optimal side-effect = %v, want 1 (paper Section II.C)", rep.SideEffect)
	}
}

func TestBruteForceTooLarge(t *testing.T) {
	p := fig1Q3Problem(t)
	if _, err := (&BruteForce{MaxCandidates: 2}).Solve(context.Background(), p); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestSingleTupleExactFig1Q4(t *testing.T) {
	p := fig1Q4Problem(t)
	sol, err := (&SingleTupleExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Evaluate(sol)
	if !rep.Feasible {
		t.Fatal("infeasible")
	}
	// Deleting T1(John,TKDE) has collateral 1 (John,TKDE,CUBE);
	// deleting T2(TKDE,XML,30) has collateral 2. Optimum is 1.
	if rep.SideEffect != 1 {
		t.Errorf("side-effect = %v, want 1", rep.SideEffect)
	}
	// Agrees with brute force.
	bf, err := (&BruteForce{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Evaluate(bf).SideEffect; got != rep.SideEffect {
		t.Errorf("brute %v != single-exact %v", got, rep.SideEffect)
	}
}

func TestSingleTupleExactPreconditions(t *testing.T) {
	p := fig1Q3Problem(t) // not key-preserving, two derivations
	if _, err := (&SingleTupleExact{}).Solve(context.Background(), p); err == nil {
		t.Error("non-key-preserving accepted")
	}
	p4 := fig1Q4Problem(t)
	p4.Delta.Add(view.TupleRef{View: 0, Tuple: tup("Joe", "TKDE", "XML")})
	if _, err := (&SingleTupleExact{}).Solve(context.Background(), p4); err == nil {
		t.Error("multi-tuple deletion accepted")
	}
}

func TestGreedyFeasibleFig1(t *testing.T) {
	for _, mk := range []func(*testing.T) *Problem{fig1Q3Problem, fig1Q4Problem} {
		p := mk(t)
		sol, err := (&Greedy{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if rep := p.Evaluate(sol); !rep.Feasible {
			t.Errorf("greedy infeasible: %+v", rep)
		}
	}
}

func TestKeyPreservingSolverRejection(t *testing.T) {
	p := fig1Q3Problem(t)
	solvers := []Solver{&RedBlue{}, &RedBlueExact{}, &BalancedRedBlue{}, &PrimalDual{}, &LowDegTreeTwo{}, &LowDegTree{Tau: 3}, &DPTree{}}
	for _, s := range solvers {
		if _, err := s.Solve(context.Background(), p); !errors.Is(err, ErrNotKeyPreserving) {
			t.Errorf("%s: err = %v, want ErrNotKeyPreserving", s.Name(), err)
		}
	}
}

// starProblem builds a key-preserving multi-query problem and a deletion.
func starProblem(t *testing.T, seed int64, nDel int) *Problem {
	t.Helper()
	w := workload.Star(workload.StarConfig{
		Seed: seed, Relations: 4, HubValues: 3, RowsPerRelation: 5,
		Queries: 3, AtomsPerQuery: 2,
	})
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	del := workload.SampleDeletion(p.Views, nDel, seed+1)
	p.Delta = del
	if err := del.Validate(p.Views); err != nil {
		t.Fatal(err)
	}
	return p
}

func chainProblem(t *testing.T, seed int64, nDel int) *Problem {
	t.Helper()
	w := workload.Chain(workload.ChainConfig{
		Seed: seed, Length: 4, Domain: 3, RowsPerRelation: 5,
		Queries: 3, MaxSpan: 3,
	})
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Delta = workload.SampleDeletion(p.Views, nDel, seed+1)
	return p
}

func pivotProblem(t *testing.T, seed int64, nDel int) *Problem {
	t.Helper()
	w := workload.Pivot(workload.PivotConfig{
		Seed: seed, Roots: 3, ChildrenPerRoot: 3, GrandPerChild: 2,
	})
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Delta = workload.SampleDeletion(p.Views, nDel, seed+1)
	return p
}

// TestSelfJoinWorkload: the key-preserving solvers handle self-join
// queries (the paper's project-free fragment explicitly contains
// self-joins).
func TestSelfJoinWorkload(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		w := workload.SelfJoin(workload.SelfJoinConfig{Seed: seed, Nodes: 4, Edges: 8, Queries: 2, MaxLen: 2})
		p, err := NewProblem(w.DB, w.Queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !p.IsKeyPreserving() {
			t.Fatal("self-join workload should be key-preserving")
		}
		p.Delta = workload.SampleDeletion(p.Views, 3, seed+7)
		if p.Delta.Len() == 0 {
			continue
		}
		bf, err := (&BruteForce{}).Solve(context.Background(), p)
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				continue
			}
			t.Fatal(err)
		}
		opt := p.Evaluate(bf)
		if !opt.Feasible {
			t.Fatalf("seed %d: brute infeasible", seed)
		}
		for _, s := range []Solver{&RedBlue{}, &RedBlueExact{}, &Greedy{}, &PrimalDual{}} {
			sol, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, s.Name(), err)
			}
			rep := p.Evaluate(sol)
			if !rep.Feasible {
				t.Errorf("seed %d %s: infeasible", seed, s.Name())
			}
			if rep.SideEffect < opt.SideEffect-1e-9 {
				t.Errorf("seed %d %s: %v beats optimum %v", seed, s.Name(), rep.SideEffect, opt.SideEffect)
			}
			if s.Name() == "red-blue-exact" && rep.SideEffect != opt.SideEffect {
				t.Errorf("seed %d: red-blue-exact %v != brute %v", seed, rep.SideEffect, opt.SideEffect)
			}
		}
	}
}

// TestSolversFeasibleAndBounded is the workhorse: on star, chain and pivot
// workloads every approximation is feasible, never beats the optimum, and
// the exact solvers agree with each other.
func TestSolversFeasibleAndBounded(t *testing.T) {
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
			bf, err := (&BruteForce{}).Solve(context.Background(), p)
			if err != nil {
				if errors.Is(err, ErrTooLarge) {
					continue
				}
				t.Fatalf("%s/%d: brute: %v", name, seed, err)
			}
			opt := p.Evaluate(bf)
			if !opt.Feasible {
				t.Fatalf("%s/%d: brute infeasible", name, seed)
			}
			rbe, err := (&RedBlueExact{}).Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s/%d: red-blue-exact: %v", name, seed, err)
			}
			if got := p.Evaluate(rbe); !got.Feasible || got.SideEffect != opt.SideEffect {
				t.Errorf("%s/%d: red-blue-exact %v != brute %v", name, seed, got.SideEffect, opt.SideEffect)
			}
			for _, s := range ApproxSolvers() {
				sol, err := s.Solve(context.Background(), p)
				if err != nil {
					t.Fatalf("%s/%d: %s: %v", name, seed, s.Name(), err)
				}
				rep := p.Evaluate(sol)
				if !rep.Feasible {
					t.Errorf("%s/%d: %s infeasible", name, seed, s.Name())
				}
				if rep.SideEffect < opt.SideEffect-1e-9 {
					t.Errorf("%s/%d: %s cost %v beats optimum %v", name, seed, s.Name(), rep.SideEffect, opt.SideEffect)
				}
			}
		}
	}
}

// TestTheorem4Bound: on forest (chain) instances the low-degree sweep is
// within 2√‖V‖ of optimal.
func TestTheorem4Bound(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := chainProblem(t, seed, 3)
		if p.Delta.Len() == 0 {
			continue
		}
		bf, err := (&RedBlueExact{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		opt := p.Evaluate(bf).SideEffect
		sol, err := (&LowDegTreeTwo{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		got := p.Evaluate(sol).SideEffect
		bound := 2 * math.Sqrt(float64(p.TotalViewSize()))
		if opt > 0 && got > bound*opt+1e-9 {
			t.Errorf("seed %d: ratio %v exceeds 2√‖V‖ = %v", seed, got/opt, bound)
		}
		if opt == 0 && got > 0 {
			// A zero-cost optimum must be matched for the multiplicative
			// guarantee to mean anything; report it.
			t.Logf("seed %d: optimum 0 but low-deg found %v", seed, got)
		}
	}
}

// TestTheorem3Bound: the primal-dual is within factor l on forest
// instances (l = max query arity).
func TestTheorem3Bound(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := chainProblem(t, seed, 3)
		if p.Delta.Len() == 0 {
			continue
		}
		bf, err := (&RedBlueExact{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		opt := p.Evaluate(bf).SideEffect
		sol, err := (&PrimalDual{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		got := p.Evaluate(sol).SideEffect
		l := float64(p.MaxArity())
		if opt > 0 && got > l*opt+1e-9 {
			t.Errorf("seed %d: ratio %v exceeds l = %v", seed, got/opt, l)
		}
	}
}

// TestDPTreeExactOnPivot: Algorithm 4 matches brute force on pivot
// instances across seeds.
func TestDPTreeExactOnPivot(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := pivotProblem(t, seed, 3)
		if p.Delta.Len() == 0 {
			continue
		}
		if !IsPivotForest(p) {
			t.Fatalf("seed %d: pivot workload not detected as pivot forest", seed)
		}
		dp, err := (&DPTree{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		dpRep := p.Evaluate(dp)
		if !dpRep.Feasible {
			t.Fatalf("seed %d: DP infeasible", seed)
		}
		bf, err := (&BruteForce{}).Solve(context.Background(), p)
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				continue
			}
			t.Fatal(err)
		}
		if opt := p.Evaluate(bf).SideEffect; dpRep.SideEffect != opt {
			t.Errorf("seed %d: DP %v != optimum %v", seed, dpRep.SideEffect, opt)
		}
	}
}

// TestDPTreeExactOnDepth3Pivot: four-level hierarchies (Root → Child →
// Grand → GreatGrand) exercise deeper path merging in the trie.
func TestDPTreeExactOnDepth3Pivot(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		w := workload.Pivot(workload.PivotConfig{
			Seed: seed, Roots: 2, ChildrenPerRoot: 2, GrandPerChild: 2, Depth3: true,
		})
		p, err := NewProblem(w.DB, w.Queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Delta = workload.SampleDeletion(p.Views, 3, seed+11)
		if p.Delta.Len() == 0 {
			continue
		}
		if !IsPivotForest(p) {
			t.Fatalf("seed %d: depth-3 pivot workload not detected", seed)
		}
		dp, err := (&DPTree{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		rep := p.Evaluate(dp)
		if !rep.Feasible {
			t.Fatalf("seed %d: DP infeasible", seed)
		}
		bf, err := (&BruteForce{}).Solve(context.Background(), p)
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				continue
			}
			t.Fatal(err)
		}
		if opt := p.Evaluate(bf).SideEffect; rep.SideEffect != opt {
			t.Errorf("seed %d: DP %v != optimum %v", seed, rep.SideEffect, opt)
		}
	}
}

func TestDPTreeRejectsNonPivot(t *testing.T) {
	p := fig1Q4Problem(t)
	if _, err := (&DPTree{}).Solve(context.Background(), p); !errors.Is(err, ErrNotPivotForest) {
		t.Errorf("err = %v, want ErrNotPivotForest", err)
	}
	if IsPivotForest(p) {
		t.Error("Fig1/Q4 wrongly detected as pivot forest")
	}
}

// TestBalancedSolvers: the balanced objective never exceeds the standard
// optimum (skipping a deletion is allowed), the exact balanced solvers
// agree, and the Lemma 1 approximation is feasible in the balanced sense.
func TestBalancedSolvers(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := starProblem(t, seed, 3)
		if p.Delta.Len() == 0 {
			continue
		}
		bb, err := (&BruteForce{Balanced: true}).Solve(context.Background(), p)
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				continue
			}
			t.Fatal(err)
		}
		optBal := p.Evaluate(bb).Balanced
		be, err := (&BalancedRedBlue{Exact: true}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Evaluate(be).Balanced; math.Abs(got-optBal) > 1e-9 {
			t.Errorf("seed %d: balanced exact %v != balanced brute %v", seed, got, optBal)
		}
		ap, err := (&BalancedRedBlue{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Evaluate(ap).Balanced; got < optBal-1e-9 {
			t.Errorf("seed %d: balanced approx %v beats optimum %v", seed, got, optBal)
		}
		// Balanced optimum ≤ standard optimum (when the standard problem
		// is feasible): dropping the constraint can't hurt.
		sf, err := (&BruteForce{}).Solve(context.Background(), p)
		if err == nil {
			if std := p.Evaluate(sf).SideEffect; optBal > std+1e-9 {
				t.Errorf("seed %d: balanced optimum %v exceeds standard optimum %v", seed, optBal, std)
			}
		}
	}
}

// TestDPTreeBalanced: the balanced DP on pivot instances matches the
// balanced brute force.
func TestDPTreeBalanced(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := pivotProblem(t, seed, 4)
		if p.Delta.Len() == 0 {
			continue
		}
		dp, err := (&DPTree{Balanced: true}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		got := p.Evaluate(dp).Balanced
		bb, err := (&BruteForce{Balanced: true}).Solve(context.Background(), p)
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				continue
			}
			t.Fatal(err)
		}
		if want := p.Evaluate(bb).Balanced; math.Abs(got-want) > 1e-9 {
			t.Errorf("seed %d: balanced DP %v != optimum %v", seed, got, want)
		}
	}
}

// TestWeightedSolvers: with random integer weights, exact solvers agree
// and approximations respect optimality ordering.
func TestWeightedSolvers(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := pivotProblem(t, seed, 3)
		if p.Delta.Len() == 0 {
			continue
		}
		ws := workload.SampleWeights(p.Views, p.Delta, 5, seed+100)
		for _, ref := range p.PreservedRefs() {
			p.SetWeight(ref, ws[ref.Key()])
		}
		bf, err := (&BruteForce{}).Solve(context.Background(), p)
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				continue
			}
			t.Fatal(err)
		}
		opt := p.Evaluate(bf).SideEffect
		rbe, err := (&RedBlueExact{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Evaluate(rbe).SideEffect; math.Abs(got-opt) > 1e-9 {
			t.Errorf("seed %d: weighted red-blue-exact %v != %v", seed, got, opt)
		}
		dp, err := (&DPTree{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Evaluate(dp).SideEffect; math.Abs(got-opt) > 1e-9 {
			t.Errorf("seed %d: weighted DP %v != %v", seed, got, opt)
		}
		for _, s := range ApproxSolvers() {
			sol, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			rep := p.Evaluate(sol)
			if !rep.Feasible || rep.SideEffect < opt-1e-9 {
				t.Errorf("seed %d: %s weighted rep %+v vs opt %v", seed, s.Name(), rep, opt)
			}
		}
	}
}

func TestWeightAccessors(t *testing.T) {
	p := fig1Q4Problem(t)
	ref := view.TupleRef{View: 0, Tuple: tup("Joe", "TKDE", "XML")}
	if p.Weight(ref) != 1 {
		t.Error("default weight != 1")
	}
	p.SetWeight(ref, 3.5)
	if p.Weight(ref) != 3.5 {
		t.Error("SetWeight not reflected")
	}
}

func TestPrimalDualNoPruneAblation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := chainProblem(t, seed, 3)
		if p.Delta.Len() == 0 {
			continue
		}
		withPrune, err := (&PrimalDual{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		noPrune, err := (&PrimalDual{NoPrune: true}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		a, b := p.Evaluate(withPrune), p.Evaluate(noPrune)
		if !a.Feasible || !b.Feasible {
			t.Fatalf("seed %d: prune=%v noprune=%v", seed, a.Feasible, b.Feasible)
		}
		if a.SideEffect > b.SideEffect+1e-9 {
			t.Errorf("seed %d: pruning increased cost %v > %v", seed, a.SideEffect, b.SideEffect)
		}
	}
}

func TestEmptyDeletionIsTrivial(t *testing.T) {
	w := workload.Fig1()
	p, err := NewProblem(w.DB, w.Queries[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(ApproxSolvers(), ExactSolvers()...) {
		sol, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		rep := p.Evaluate(sol)
		if !rep.Feasible || rep.SideEffect != 0 {
			t.Errorf("%s on empty ΔV: %+v", s.Name(), rep)
		}
	}
}

// TestFeasibilityMonotoneQuick: enlarging a feasible deletion never
// breaks feasibility, and never lowers the side-effect below the
// original's (collateral only grows).
func TestFeasibilityMonotoneQuick(t *testing.T) {
	f := func(seed int64, extraMask uint16) bool {
		p := pivotProblem(t, 1+(seed%7+7)%7, 3)
		if p.Delta.Len() == 0 {
			return true
		}
		base, err := (&Greedy{}).Solve(context.Background(), p)
		if err != nil {
			return false
		}
		baseRep := p.Evaluate(base)
		if !baseRep.Feasible {
			return false
		}
		all := p.DB.AllTuples()
		enlarged := append([]relation.TupleID(nil), base.Deleted...)
		for i, id := range all {
			if i < 16 && extraMask&(1<<i) != 0 {
				enlarged = append(enlarged, id)
			}
		}
		rep := p.Evaluate(&Solution{Deleted: enlarged})
		return rep.Feasible && rep.SideEffect >= baseRep.SideEffect-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReportString(t *testing.T) {
	p := fig1Q4Problem(t)
	rep := p.Evaluate(&Solution{Deleted: []relation.TupleID{{Relation: "T1", Tuple: tup("John", "TKDE")}}})
	s := rep.String()
	for _, want := range []string{"feasible=true", "side-effect=1", "deleted=1", "collateral=[V0(John,TKDE,CUBE)]"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in %q", want, s)
		}
	}
	// Infeasible report shows the balanced fields.
	rep = p.Evaluate(&Solution{})
	s = rep.String()
	if !strings.Contains(s, "bad-remaining=1") {
		t.Errorf("missing bad-remaining in %q", s)
	}
}

func TestSolutionString(t *testing.T) {
	s := &Solution{Deleted: []relation.TupleID{{Relation: "T", Tuple: tup("b")}, {Relation: "T", Tuple: tup("a")}}}
	if got := s.String(); got != "ΔD{T(a), T(b)}" {
		t.Errorf("String = %q", got)
	}
}

func TestLowDegTreeInfeasibleTau(t *testing.T) {
	p := fig1Q4Problem(t)
	// Every candidate tuple of (John,TKDE,XML) touches ≥1 preserved view
	// tuple, so τ=0 bars all of them.
	if _, err := (&LowDegTree{Tau: 0}).Solve(context.Background(), p); !errors.Is(err, ErrInfeasibleRestriction) {
		t.Errorf("err = %v, want ErrInfeasibleRestriction", err)
	}
}

// TestBruteForceRespectsCandidateRestriction: restricting to candidate
// tuples loses nothing — verified against an unrestricted search.
func TestBruteForceRestrictionLossless(t *testing.T) {
	p := fig1Q4Problem(t)
	bf, err := (&BruteForce{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	opt := p.Evaluate(bf).SideEffect
	// Unrestricted: enumerate every subset of the whole database.
	all := p.DB.AllTuples()
	best := math.Inf(1)
	for mask := 0; mask < 1<<len(all); mask++ {
		var del []relation.TupleID
		for i := range all {
			if mask&(1<<i) != 0 {
				del = append(del, all[i])
			}
		}
		rep := p.Evaluate(&Solution{Deleted: del})
		if rep.Feasible && rep.SideEffect < best {
			best = rep.SideEffect
		}
	}
	if best != opt {
		t.Errorf("restricted optimum %v != unrestricted %v", opt, best)
	}
}
