package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
)

// This file implements the companion problem the paper's Tables II–III
// classify: deletion propagation with minimum SOURCE side-effect — find
// the smallest (or lightest) set of source tuples whose removal eliminates
// every requested view tuple, regardless of collateral view damage
// (Buneman et al. 2002; Cong et al. 2012). For key-preserving queries each
// requested view tuple has a single join path, so the problem is a minimum
// hitting set over those paths; for general conjunctive queries every
// derivation of a requested tuple must be hit.

// SourceWeights optionally assigns deletion costs to source tuples; a nil
// SourceWeights costs 1 per tuple.
type SourceWeights func(relation.TupleID) float64

// weightOf returns the deletion cost of a tuple.
func (w SourceWeights) weightOf(id relation.TupleID) float64 {
	if w == nil {
		return 1
	}
	return w(id)
}

// SourceSideEffect evaluates the source-side-effect objective of a
// solution: the total deletion cost, plus feasibility.
func (p *Problem) SourceSideEffect(sol *Solution, weights SourceWeights) (cost float64, feasible bool) {
	for _, id := range sol.Deleted {
		cost += weights.weightOf(id)
	}
	return cost, p.Evaluate(sol).Feasible
}

// SourceExact computes a minimum-cost source deletion by branch and bound
// over the hitting-set formulation: each derivation of each requested view
// tuple must lose at least one tuple. Exact for arbitrary conjunctive
// queries. MaxCandidates (default 26) bounds the search.
type SourceExact struct {
	MaxCandidates int
	Weights       SourceWeights
}

// Name implements Solver.
func (s *SourceExact) Name() string { return "source-exact" }

// Solve implements Solver. The branch and bound is anytime: on context
// interruption the *Interrupted carries the cheapest hitting set found so
// far, when one exists.
func (s *SourceExact) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	max := s.MaxCandidates
	if max == 0 {
		max = 26
	}
	cands := p.candidates()
	if len(cands) > max {
		return nil, fmt.Errorf("%w: %d candidates exceeds source-exact bound %d", ErrTooLarge, len(cands), max)
	}
	idx := make(map[relation.TID]int, len(cands))
	cost := make([]float64, len(cands))
	for i, t := range cands {
		idx[t] = i
		cost[i] = s.Weights.weightOf(p.DB.ByID(t))
	}
	// Collect the derivations to hit, as candidate-index sets.
	var paths [][]int
	for _, ref := range p.requested() {
		if ref < 0 {
			continue
		}
		res, pos := p.answer(ref)
		for k := range res.NumDerivations(pos) {
			var path []int
			for _, t := range view.Distinct(res.Derivation(pos, k)) {
				path = append(path, idx[t])
			}
			sort.Ints(path)
			paths = append(paths, path)
		}
	}
	chosen := make([]bool, len(cands))
	hitCount := make([]int, len(paths))
	remaining := len(paths)
	curCost := 0.0
	bestCost := math.Inf(1)
	var best []int

	toSolution := func(idxs []int) *Solution {
		sol := &Solution{}
		for _, ci := range idxs {
			sol.Deleted = append(sol.Deleted, p.DB.ByID(cands[ci]))
		}
		return sol
	}

	// coverers[path] precomputed; branch on the least-covered path.
	st := StatsFrom(ctx)
	visited := 0
	flushed := 0
	var interrupted error
	var rec func()
	rec = func() {
		if interrupted != nil {
			return
		}
		visited++
		if visited%checkEvery == 0 {
			st.Checkpoint()
			st.AddNodes(int64(visited - flushed))
			flushed = visited
			var incumbent *Solution
			if best != nil {
				incumbent = toSolution(best)
			}
			if err := checkCtx(ctx, s.Name(), incumbent); err != nil {
				interrupted = err
				return
			}
		}
		if curCost >= bestCost {
			st.AddPruned(1)
			return
		}
		if remaining == 0 {
			bestCost = curCost
			best = best[:0]
			for i, c := range chosen {
				if c {
					best = append(best, i)
				}
			}
			st.Incumbent(bestCost, len(best))
			return
		}
		// Pick an unhit path with the fewest candidates.
		pick := -1
		for pi, path := range paths {
			if hitCount[pi] > 0 {
				continue
			}
			if pick == -1 || len(path) < len(paths[pick]) {
				pick = pi
			}
		}
		for _, ci := range paths[pick] {
			if chosen[ci] {
				continue
			}
			chosen[ci] = true
			curCost += cost[ci]
			for pi, path := range paths {
				for _, x := range path {
					if x == ci {
						if hitCount[pi] == 0 {
							remaining--
						}
						hitCount[pi]++
						break
					}
				}
			}
			rec()
			for pi, path := range paths {
				for _, x := range path {
					if x == ci {
						hitCount[pi]--
						if hitCount[pi] == 0 {
							remaining++
						}
						break
					}
				}
			}
			curCost -= cost[ci]
			chosen[ci] = false
		}
	}
	rec()
	st.AddNodes(int64(visited - flushed))
	if interrupted != nil {
		return nil, interrupted
	}
	if math.IsInf(bestCost, 1) {
		// Only possible with an empty candidate path (cannot happen for
		// validated deletions) — defensive.
		return nil, fmt.Errorf("core: source-exact found no hitting set")
	}
	return toSolution(best), nil
}

// SourceGreedy is the classic ln(n)-approximation for the hitting set:
// repeatedly delete the tuple hitting the most not-yet-hit derivations per
// unit cost.
type SourceGreedy struct {
	Weights SourceWeights
}

// Name implements Solver.
func (s *SourceGreedy) Name() string { return "source-greedy" }

// Solve implements Solver.
func (s *SourceGreedy) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	cands := p.candidates()
	type path struct {
		tuples cq.Derivation
		hit    bool
	}
	var paths []*path
	for _, ref := range p.requested() {
		if ref < 0 {
			continue
		}
		res, pos := p.answer(ref)
		for k := range res.NumDerivations(pos) {
			paths = append(paths, &path{tuples: res.Derivation(pos, k)})
		}
	}
	st := StatsFrom(ctx)
	remaining := len(paths)
	sol := &Solution{}
	for remaining > 0 {
		st.Checkpoint()
		if err := checkCtx(ctx, s.Name(), nil); err != nil {
			return nil, err
		}
		best, bestScore := -1, -1.0
		for i, t := range cands {
			st.AddNodes(1)
			hits := 0
			for _, pt := range paths {
				if !pt.hit && slices.Contains(pt.tuples, t) {
					hits++
				}
			}
			if hits == 0 {
				continue
			}
			score := float64(hits) / s.Weights.weightOf(p.DB.ByID(t))
			if score > bestScore {
				bestScore, best = score, i
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("core: source-greedy stuck with %d derivations unhit", remaining)
		}
		t := cands[best]
		sol.Deleted = append(sol.Deleted, p.DB.ByID(t))
		for _, pt := range paths {
			if !pt.hit && slices.Contains(pt.tuples, t) {
				pt.hit = true
				remaining--
			}
		}
	}
	return sol, nil
}

// SourceSingleQueryExact is the Cong et al. polynomial algorithm for the
// key-preserving single-query source side-effect problem with unit
// weights: with key preservation every requested view tuple pins a unique
// join path, and a minimum hitting set over such paths can be computed
// greedily per shared tuple only when paths are disjoint — in general it
// is still hitting set, BUT for a single key-preserving query the optimal
// solution deletes, for each requested view tuple, one tuple of its path,
// and tuples shared between paths make sharing optimal. This
// implementation solves the case exactly by reduction to SourceExact and
// exists as the named baseline; its polynomial special case (single
// deletion) short-circuits.
type SourceSingleQueryExact struct{}

// Name implements Solver.
func (s *SourceSingleQueryExact) Name() string { return "source-single-query" }

// Solve implements Solver.
func (s *SourceSingleQueryExact) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if len(p.Queries) != 1 {
		return nil, fmt.Errorf("core: source-single-query requires one query, got %d", len(p.Queries))
	}
	if err := requireKeyPreserving(p, s.Name()); err != nil {
		return nil, err
	}
	if p.Delta.Len() == 1 {
		ref := p.Delta.Refs()[0]
		res, pos, ok := p.locate(ref)
		if !ok || res.NumDerivations(pos) != 1 {
			return nil, fmt.Errorf("core: unexpected provenance for %s", ref)
		}
		// Any single tuple of the path is optimal (cost 1); take the
		// first in canonical order so the answer is deterministic.
		if path := append([]relation.TID(nil), view.Distinct(res.Derivation(pos, 0))...); len(path) > 0 {
			p.sortTuples(path)
			return p.solution(path[:1]), nil
		}
	}
	return (&SourceExact{}).Solve(ctx, p)
}
