package core

import (
	"context"
	"fmt"

	"delprop/internal/relation"
	"delprop/internal/view"
)

// SingleTupleExact is the polynomial exact algorithm for the
// single-deletion case studied by Cong et al. and Kimelfeld et al. (the
// regime where key-preserving queries are tractable, Section III): when
// ΔV is a single view tuple with a unique derivation, any feasible solution
// deletes at least one tuple of that join path, and deleting more tuples
// never lowers the side effect — so the optimum is the single path tuple
// with minimum collateral weight.
type SingleTupleExact struct{}

// Name implements Solver.
func (s *SingleTupleExact) Name() string { return "single-tuple-exact" }

// Solve implements Solver. It requires |ΔV| = 1 and a key-preserving
// problem.
func (s *SingleTupleExact) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if p.Delta.Len() != 1 {
		return nil, fmt.Errorf("core: single-tuple-exact requires exactly one requested deletion, got %d", p.Delta.Len())
	}
	if err := requireKeyPreserving(p, s.Name()); err != nil {
		return nil, err
	}
	ref := p.Delta.Refs()[0]
	ans, ok := p.Answer(ref)
	if !ok || len(ans.Derivations) != 1 {
		return nil, fmt.Errorf("core: requested view tuple %s has %d derivations, want 1", ref, len(ans.Derivations))
	}
	st := StatsFrom(ctx)
	var best *Solution
	bestCost := 0.0
	// Canonical order makes the tie-break between equally cheap tuples
	// deterministic.
	path := append([]relation.TID(nil), view.Distinct(ans.Derivations[0])...)
	p.sortTuples(path)
	for _, t := range path {
		st.Checkpoint()
		if err := checkCtx(ctx, s.Name(), best); err != nil {
			return nil, err
		}
		st.AddNodes(1)
		rep := p.evaluateIDs([]relation.TID{t})
		if !rep.Feasible {
			// Cannot happen for a key-preserving single derivation;
			// defensive.
			continue
		}
		if best == nil || rep.SideEffect < bestCost {
			best, bestCost = p.solution([]relation.TID{t}), rep.SideEffect
			st.Incumbent(bestCost, 1)
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no feasible single-tuple deletion for %s", ref)
	}
	return best, nil
}
