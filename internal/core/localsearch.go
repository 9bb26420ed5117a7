package core

import (
	"context"

	"delprop/internal/relation"
)

// LocalSearch wraps another solver and improves its solution by hill
// climbing: drop deletions that are unnecessary for feasibility, and try
// single-tuple swaps (replace one deleted tuple with a different tuple
// from an affected request's join path) while the weighted side effect
// strictly decreases. The result is never worse than the inner solver's
// and remains feasible. MaxPasses bounds the sweeps (default 4).
type LocalSearch struct {
	// Inner produces the starting solution (Greedy when nil).
	Inner Solver
	// MaxPasses bounds improvement sweeps.
	MaxPasses int
}

// Name implements Solver.
func (ls *LocalSearch) Name() string {
	inner := ls.inner()
	return "local-search(" + inner.Name() + ")"
}

func (ls *LocalSearch) inner() Solver {
	if ls.Inner != nil {
		return ls.Inner
	}
	return &Greedy{}
}

// Solve implements Solver. Hill climbing is the canonical anytime solver:
// every accepted move keeps the solution feasible and never worse, so an
// interruption mid-climb returns an *Interrupted carrying the current
// solution as incumbent (an interruption inside the inner solver is
// propagated unchanged, incumbent and all).
func (ls *LocalSearch) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	start, err := ls.inner().Solve(ctx, p)
	if err != nil {
		return nil, err
	}
	passes := ls.MaxPasses
	if passes == 0 {
		passes = 4
	}
	// current is the working deletion: members, plus the same set as a
	// bitset for scoring.
	var current []relation.TID
	var set relation.IDSet
	add := func(t relation.TID) {
		current = append(current, t)
		set.Add(t)
	}
	remove := func(t relation.TID) {
		for i, c := range current {
			if c == t {
				current = append(current[:i], current[i+1:]...)
				break
			}
		}
		set.Remove(t)
	}
	for _, id := range start.Deleted {
		if t, ok := p.DB.ID(id); ok && !set.Has(t) {
			add(t)
		}
	}
	// sorted returns the members in canonical order.
	sorted := func() []relation.TID {
		out := append([]relation.TID(nil), current...)
		p.sortTuples(out)
		return out
	}
	toSolution := func() *Solution { return p.solution(sorted()) }
	score := func() (float64, bool) {
		rep := p.evaluate(set, false)
		return rep.SideEffect, rep.Feasible
	}
	bestCost, feasible := score()
	if !feasible {
		// Inner solver produced an infeasible solution (e.g. a balanced
		// variant); return it untouched.
		return start, nil
	}
	st := StatsFrom(ctx)
	cands := p.candidates()
	for pass := 0; pass < passes; pass++ {
		// Each climbing pass is one restart of the sweep.
		st.Restart()
		improved := false
		// Drop moves.
		for _, t := range sorted() {
			st.Checkpoint()
			if err := checkCtx(ctx, ls.Name(), toSolution()); err != nil {
				return nil, err
			}
			st.AddNodes(1)
			remove(t)
			if c, ok := score(); ok && c <= bestCost {
				if c < bestCost {
					improved = true
					st.Incumbent(c, len(current))
				}
				bestCost = c
				continue
			}
			add(t)
		}
		// Swap moves: replace one deletion with one candidate.
		for _, t := range sorted() {
			st.Checkpoint()
			if err := checkCtx(ctx, ls.Name(), toSolution()); err != nil {
				return nil, err
			}
			for _, alt := range cands {
				if set.Has(alt) || alt == t {
					continue
				}
				st.AddNodes(1)
				remove(t)
				add(alt)
				if c, ok := score(); ok && c < bestCost {
					bestCost = c
					improved = true
					st.Incumbent(c, len(current))
					break
				}
				remove(alt)
				add(t)
			}
		}
		if !improved {
			break
		}
	}
	return toSolution(), nil
}
