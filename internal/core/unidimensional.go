package core

import (
	"context"
	"fmt"

	"delprop/internal/relation"
)

// Unidimensional implements the algorithm behind the Table IV tractable
// case of Kimelfeld, Vondrák and Williams: for a single self-join-free
// query WITH head domination and a single-tuple deletion request, an
// optimal solution is "unidimensional" — it deletes facts from a single
// atom's relation, namely every fact that atom matches across the
// requested answer's derivations. The solver evaluates that candidate
// set for every atom and returns the best; head domination guarantees one
// of them is optimal (validated differentially against BruteForce in the
// tests).
//
// Preconditions: exactly one query, sj-free, head-dominated, |ΔV| = 1.
type Unidimensional struct{}

// Name implements Solver.
func (u *Unidimensional) Name() string { return "unidimensional" }

// ErrNotHeadDominated is returned when the query lacks head domination
// (where the single-query view side-effect problem is NP-complete and
// this algorithm's guarantee evaporates).
var ErrNotHeadDominated = fmt.Errorf("core: query is not head-dominated")

// Applicable checks the algorithm's preconditions without doing any solve
// work: one self-join-free head-dominated query and a single-tuple
// request. Callers (notably the "auto" solver picker) use it to route
// instances instead of solving once to probe feasibility and again for the
// answer.
func (u *Unidimensional) Applicable(p *Problem) error {
	if len(p.Queries) != 1 {
		return fmt.Errorf("core: unidimensional requires one query, got %d", len(p.Queries))
	}
	if p.Delta.Len() != 1 {
		return fmt.Errorf("core: unidimensional requires one requested deletion, got %d", p.Delta.Len())
	}
	q := p.Queries[0]
	if !q.IsSelfJoinFree() {
		return fmt.Errorf("core: unidimensional requires a self-join-free query")
	}
	// The memoized per-skeleton verdict: the auto picker probes Applicable
	// and then Solve re-checks it, so going through QueryProperties keeps
	// classification at one run per problem instead of one per call.
	props, err := p.QueryProperties()
	if err != nil {
		return err
	}
	if !props[0].HeadDomination {
		return ErrNotHeadDominated
	}
	if _, ok := p.Answer(p.Delta.Refs()[0]); !ok {
		return fmt.Errorf("core: %s is not a view tuple", p.Delta.Refs()[0])
	}
	return nil
}

// Solve implements Solver.
func (u *Unidimensional) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if err := u.Applicable(p); err != nil {
		return nil, err
	}
	q := p.Queries[0]
	ref := p.Delta.Refs()[0]
	ans, _ := p.Answer(ref)
	st := StatsFrom(ctx)
	var best *Solution
	bestCost := 0.0
	for ai := range q.Body {
		st.Checkpoint()
		if err := checkCtx(ctx, u.Name(), best); err != nil {
			return nil, err
		}
		st.AddNodes(1)
		// The unidimensional candidate for atom ai: every fact this atom
		// matches in a derivation of the requested answer.
		var seen relation.IDSet
		var del []relation.TID
		for _, d := range ans.Derivations {
			if t := d[ai]; !seen.Has(t) {
				seen.Add(t)
				del = append(del, t)
			}
		}
		p.sortTuples(del)
		sol := p.solution(del)
		rep := p.evaluateIDs(del)
		if !rep.Feasible {
			// Deleting every fact the atom contributes always kills every
			// derivation; infeasibility would be a logic bug.
			return nil, fmt.Errorf("core: unidimensional candidate for atom %d infeasible", ai)
		}
		if best == nil || rep.SideEffect < bestCost ||
			(rep.SideEffect == bestCost && len(sol.Deleted) < len(best.Deleted)) {
			best, bestCost = sol, rep.SideEffect
			st.Incumbent(bestCost, len(sol.Deleted))
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: query has no atoms")
	}
	return best, nil
}
