package core

import (
	"context"

	"delprop/internal/relation"
)

// PrimalDual implements Algorithm 1 (PrimeDualVSE): the primal-dual
// l-approximation for the forest cases, after Garg–Vazirani–Yannakakis
// multicut on trees.
//
// The LP view (Section IV.C): a dual variable v_r is raised for every
// requested view tuple r; every preserved view tuple s absorbs at most
// w_s / k_s of dual growth (constraint (7), k_s = number of base tuples on
// s's join path), so each base tuple t has a capacity
//
//	C_t = Σ_{s preserved, t ∈ s} w_s / k_s.
//
// Raising the duals eagerly to their caps (the algorithm's "necessary
// increase of the intersecting view tuples to be preserved") turns
// constraint (8) into the pure packing constraint Σ_{r ∋ t} v_r ≤ C_t.
// Each requested view tuple's dual is then raised until some tuple on its
// path saturates; saturated tuples are deleted, and a reverse-delete pass
// prunes deletions not needed for feasibility. Complementary slackness
// yields the factor-l guarantee on forest instances.
//
// Requires key-preserving queries. Order: requested view tuples are
// processed in increasing depth of their path's deepest tuple when a
// forest structure is detected (the paper's LCA order); otherwise in
// deterministic reference order.
type PrimalDual struct {
	// NoPrune disables the reverse-delete pass (kept as an ablation knob;
	// the zero value runs the full Algorithm 1 including pruning).
	NoPrune bool
	// restrictCandidates, if non-nil, limits deletable tuples (used by
	// LowDegTree).
	restrictCandidates relation.IDSet
	// restrictPreserved, if non-nil, limits which preserved view tuples
	// (by ref ID) contribute capacity (LowDegTree prunes wide ones).
	restrictPreserved []bool
}

// Name implements Solver.
func (pd *PrimalDual) Name() string { return "primal-dual" }

const saturationEps = 1e-9

// Solve implements Solver.
func (pd *PrimalDual) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	st.Checkpoint()
	if err := checkCtx(ctx, pd.Name(), nil); err != nil {
		return nil, err
	}
	if err := requireKeyPreserving(p, pd.Name()); err != nil {
		return nil, err
	}
	var candSet relation.IDSet
	for _, t := range p.candidates() {
		if pd.restrictCandidates == nil || pd.restrictCandidates.Has(t) {
			candSet.Add(t)
		}
	}
	capacity := p.capacities(candSet, pd.restrictPreserved)
	// Path per requested view tuple (restricted to candidates), in a
	// deterministic processing order: path length then key, approximating
	// the paper's depth ordering on forest instances.
	reqs := p.requests(candSet)

	load := make([]float64, len(capacity))
	var saturated relation.IDSet
	var pickOrder []relation.TID
	totalDual := 0.0
	for ri, r := range reqs {
		if ri%checkEvery == 0 {
			st.Checkpoint()
			if err := checkCtx(ctx, pd.Name(), nil); err != nil {
				return nil, err
			}
		}
		// Each dual raise is one node of the primal-dual "search".
		st.AddNodes(1)
		if len(r.path) == 0 {
			// No deletable tuple can kill this request; infeasible under
			// the restriction.
			return nil, ErrInfeasibleRestriction
		}
		// Already hit?
		hit := false
		for _, t := range r.path {
			if saturated.Has(t) {
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		// Raise v_r by the minimum slack along the path.
		delta := -1.0
		for _, t := range r.path {
			slack := capacity[t] - load[t]
			if delta < 0 || slack < delta {
				delta = slack
			}
		}
		if delta < 0 {
			delta = 0
		}
		for _, t := range r.path {
			load[t] += delta
			if !saturated.Has(t) && load[t] >= capacity[t]-saturationEps {
				saturated.Add(t)
				pickOrder = append(pickOrder, t)
			}
		}
		totalDual += delta
	}
	// The raised duals are feasible for the aggregated LP (constraints
	// (6)–(10)), so Σ v_r lower-bounds the optimum — but only on the
	// unrestricted problem: LowDegTree's candidate/preserved restrictions
	// change the LP, so the certificate is withheld there.
	if pd.restrictCandidates == nil && pd.restrictPreserved == nil {
		st.ObserveLowerBound(totalDual)
	}

	// Reverse-delete prune: drop saturated tuples not needed to keep every
	// requested view tuple covered.
	chosen := append(relation.IDSet(nil), saturated...)
	if !pd.NoPrune {
		feasibleWithout := func(drop relation.TID) bool {
			for _, r := range reqs {
				covered := false
				for _, t := range r.path {
					if t != drop && chosen.Has(t) {
						covered = true
						break
					}
				}
				if !covered {
					return false
				}
			}
			return true
		}
		for i := len(pickOrder) - 1; i >= 0; i-- {
			t := pickOrder[i]
			if feasibleWithout(t) {
				chosen.Remove(t)
			}
		}
	}
	var out []relation.TID
	for _, t := range pickOrder {
		if chosen.Has(t) {
			out = append(out, t)
		}
	}
	p.sortTuples(out)
	return p.solution(out), nil
}
