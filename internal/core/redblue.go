package core

import (
	"context"
	"fmt"
	"slices"

	"delprop/internal/relation"
	"delprop/internal/setcover"
)

// redBlueEncoding is the Claim 1 reduction from view side-effect to
// Red-Blue Set Cover: one blue element per requested view tuple, one
// weighted red element per preserved view tuple, and one set per candidate
// base tuple containing exactly the view tuples whose (unique,
// key-preserving) join path goes through it.
type redBlueEncoding struct {
	inst   *setcover.Instance
	tuples []relation.TID // set index -> base tuple
}

// elementIndex numbers the set-cover elements: the requested view tuples
// (blue) in request order and the preserved ones some candidate touches
// (red) in (view, answer) order; untouched preserved tuples can never be
// collateral damage. index maps a ref ID to its element number; the red
// weights are nil when every weight is 1.
func elementIndex(p *Problem, cands []relation.TID) (index func(ref int32) int, numRed int, redWeights []float64) {
	blue := make(map[int32]int, p.Delta.Len())
	for i, id := range p.requested() {
		blue[int32(id)] = i
	}
	var reds []int32
	for _, t := range cands {
		for _, occ := range p.Inverted().Occurrences(t) {
			if !p.Delta.Has(int(occ.Ref)) {
				reds = append(reds, occ.Ref)
			}
		}
	}
	slices.Sort(reds)
	reds = slices.Compact(reds)
	if p.weights != nil {
		redWeights = make([]float64, len(reds))
		for i, r := range reds {
			redWeights[i] = p.weight(int(r))
		}
	}
	return func(ref int32) int {
		if i, ok := blue[ref]; ok {
			return i
		}
		i, _ := slices.BinarySearch(reds, ref)
		return i
	}, len(reds), redWeights
}

// buildRedBlue constructs the encoding. Preserved view tuples that no
// candidate touches are omitted (they can never be collateral damage).
func buildRedBlue(p *Problem) (*redBlueEncoding, error) {
	if err := requireKeyPreserving(p, "red-blue"); err != nil {
		return nil, err
	}
	cands := p.candidates()
	index, numRed, redWeights := elementIndex(p, cands)
	enc := &redBlueEncoding{inst: &setcover.Instance{
		NumRed:     numRed,
		NumBlue:    p.Delta.Len(),
		RedWeights: redWeights,
	}}
	for _, t := range cands {
		s := setcover.Set{Name: p.DB.ByID(t).String()}
		for _, occ := range p.Inverted().Occurrences(t) {
			if i := index(occ.Ref); p.Delta.Has(int(occ.Ref)) {
				s.Blues = append(s.Blues, i)
			} else {
				s.Reds = append(s.Reds, i)
			}
		}
		enc.inst.Sets = append(enc.inst.Sets, s)
		enc.tuples = append(enc.tuples, t)
	}
	if err := enc.inst.Validate(); err != nil {
		return nil, fmt.Errorf("core: red-blue encoding invalid: %w", err)
	}
	return enc, nil
}

// decodeSets maps a set-cover solution over the given set tuples back to
// a source deletion.
func decodeSets(p *Problem, tuples []relation.TID, sol setcover.Solution) *Solution {
	out := &Solution{}
	for _, si := range sol.Chosen {
		out.Deleted = append(out.Deleted, p.DB.ByID(tuples[si]))
	}
	return out
}

// RedBlue is the general-case approximation of Claim 1: reduce to Red-Blue
// Set Cover and solve with the low-degree sweep, giving the
// O(2√(l·‖V‖·log‖ΔV‖)) guarantee. Requires key-preserving queries.
type RedBlue struct {
	// Mode selects the inner greedy of the sweep (GreedyRatio default).
	Mode setcover.GreedyMode
}

// Name implements Solver.
func (r *RedBlue) Name() string { return "red-blue" }

// Solve implements Solver. The reduction and sweep are polynomial, so a
// single checkpoint before each phase suffices.
func (r *RedBlue) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	st.Checkpoint()
	if err := checkCtx(ctx, r.Name(), nil); err != nil {
		return nil, err
	}
	enc, err := buildRedBlue(p)
	if err != nil {
		return nil, err
	}
	if enc.inst.NumBlue == 0 {
		return &Solution{}, nil
	}
	st.Checkpoint()
	if err := checkCtx(ctx, r.Name(), nil); err != nil {
		return nil, err
	}
	sol, err := enc.inst.LowDegSweep(r.Mode)
	if err != nil {
		return nil, fmt.Errorf("core: red-blue sweep: %w", err)
	}
	// The sweep probes every set once per distinct red degree; that probe
	// count is its "nodes expanded" equivalent.
	st.AddNodes(int64(len(enc.inst.Sets)))
	return decodeSets(p, enc.tuples, sol), nil
}

// RedBlueExact solves the Claim 1 encoding exactly by branch and bound. It
// is exact for key-preserving problems and much faster than BruteForce,
// serving as the reference optimum in larger ratio experiments.
type RedBlueExact struct {
	// MaxSets bounds the search (0 = unbounded).
	MaxSets int
}

// Name implements Solver.
func (r *RedBlueExact) Name() string { return "red-blue-exact" }

// Solve implements Solver. The branch and bound is anytime: on context
// interruption the *Interrupted error carries the best cover found so far,
// decoded back to a source deletion.
func (r *RedBlueExact) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	st.Checkpoint()
	if err := checkCtx(ctx, r.Name(), nil); err != nil {
		return nil, err
	}
	enc, err := buildRedBlue(p)
	if err != nil {
		return nil, err
	}
	if enc.inst.NumBlue == 0 {
		return &Solution{}, nil
	}
	sol, err := enc.inst.ExactRecorded(ctx, r.MaxSets, recorder(st))
	if err != nil {
		if isCtxErr(err) {
			var incumbent *Solution
			if len(sol.Chosen) > 0 {
				incumbent = decodeSets(p, enc.tuples, sol)
			}
			return nil, interruption(ctx, r.Name(), incumbent)
		}
		return nil, fmt.Errorf("core: red-blue exact: %w", err)
	}
	out := decodeSets(p, enc.tuples, sol)
	// The completed branch and bound is exact (Theorem 1 preserves cost),
	// so the achieved side effect doubles as the proven optimum.
	opt := p.Evaluate(out).SideEffect
	st.SetObjective(opt)
	st.ObserveLowerBound(opt)
	return out, nil
}

// BalancedRedBlue is the Lemma 1 approximation for balanced deletion
// propagation: reduce to Positive-Negative Partial Set Cover (positives =
// requested view tuples, negatives = preserved view tuples, one set per
// candidate tuple) and solve via Miettinen's reduction, giving the
// 2√(l·(‖V‖+‖ΔV‖)·log‖ΔV‖) guarantee. Requires key-preserving queries.
type BalancedRedBlue struct {
	Mode setcover.GreedyMode
	// Exact switches to the exact branch-and-bound on the reduction
	// (reference optimum for the balanced objective).
	Exact bool
	// MaxSets bounds the exact search (0 = unbounded).
	MaxSets int
}

// Name implements Solver.
func (b *BalancedRedBlue) Name() string {
	if b.Exact {
		return "balanced-exact"
	}
	return "balanced-red-blue"
}

// Solve implements Solver. The exact variant is anytime like
// RedBlueExact; the approximation is polynomial.
func (b *BalancedRedBlue) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	st.Checkpoint()
	if err := checkCtx(ctx, b.Name(), nil); err != nil {
		return nil, err
	}
	if err := requireKeyPreserving(p, b.Name()); err != nil {
		return nil, err
	}
	tuples := p.candidates()
	index, numNeg, negWeights := elementIndex(p, tuples)
	pn := &setcover.PNPSCInstance{
		NumPos:     p.Delta.Len(),
		NumNeg:     numNeg,
		NegWeights: negWeights,
	}
	for _, t := range tuples {
		s := setcover.PNSet{Name: p.DB.ByID(t).String()}
		for _, occ := range p.Inverted().Occurrences(t) {
			if i := index(occ.Ref); p.Delta.Has(int(occ.Ref)) {
				s.Positives = append(s.Positives, i)
			} else {
				s.Negatives = append(s.Negatives, i)
			}
		}
		pn.Sets = append(pn.Sets, s)
	}
	if err := pn.Validate(); err != nil {
		return nil, fmt.Errorf("core: balanced encoding invalid: %w", err)
	}
	decode := func(sol setcover.Solution) *Solution { return decodeSets(p, tuples, sol) }
	var sol setcover.Solution
	var err error
	if b.Exact {
		sol, err = pn.ExactRecorded(ctx, b.MaxSets, recorder(st))
	} else {
		sol, err = pn.Solve(b.Mode)
		st.AddNodes(int64(len(pn.Sets)))
	}
	if err != nil {
		if isCtxErr(err) {
			var incumbent *Solution
			if len(sol.Chosen) > 0 {
				incumbent = decode(sol)
			}
			return nil, interruption(ctx, b.Name(), incumbent)
		}
		return nil, fmt.Errorf("core: balanced solve: %w", err)
	}
	return decode(sol), nil
}

// BuildRedBlueEncoding exposes the Claim 1 encoding for the reduction
// experiments (experiment E8) and for white-box tests.
func BuildRedBlueEncoding(p *Problem) (*setcover.Instance, []relation.TupleID, error) {
	enc, err := buildRedBlue(p)
	if err != nil {
		return nil, nil, err
	}
	return enc.inst, p.tupleIDs(enc.tuples), nil
}
