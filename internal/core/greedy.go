package core

import (
	"context"
	"fmt"
	"sync"

	"delprop/internal/relation"
	"delprop/internal/view"
)

// probeCheckEvery bounds how many candidate probes a greedy scoring round
// runs between cooperative cancellation checkpoints. One round probes
// every remaining candidate, so on large instances a single round can run
// far past the deadline if the solver only polls between rounds; checking
// every few dozen probes keeps cancellation latency proportional to probe
// cost, not to the candidate count.
const probeCheckEvery = 64

// Greedy is the baseline heuristic: repeatedly delete the candidate tuple
// killing the most still-alive requested view tuples per unit of newly
// destroyed preserved weight, breaking ties by how many surviving
// derivations it cuts (so the search advances even when no single deletion
// kills a whole multi-derivation request). Feasible for arbitrary
// conjunctive queries (not only key-preserving), with no approximation
// guarantee.
//
// The default implementation scores candidates with the incremental view
// maintainer (delete, inspect, undelete); Naive switches to re-deriving
// survival from scratch per probe — kept as the DESIGN.md ablation.
//
// With Workers > 1 the per-round scoring loop — an embarrassingly
// parallel O(candidates × Δ) probe — shards the candidate list across
// that many goroutines, each probing against its own view.Maintainer
// clone. Shards are contiguous ascending index ranges, every worker keeps
// the lowest-index maximum of its shard, and the merge walks shards in
// ascending order taking strictly greater scores only, so the chosen
// candidate is the lowest-index maximum overall — exactly the serial
// pick. Each worker runs the identical floating-point computation on
// identical maintainer state, so scores are bit-equal to the serial ones
// and the returned solution is byte-identical to the serial solver's.
// Workers applies to the incremental path only; the naive ablation stays
// serial.
type Greedy struct {
	// Naive disables incremental maintenance during scoring.
	Naive bool
	// Workers is the number of concurrent scoring goroutines; values < 2
	// mean serial scoring.
	Workers int
}

// Name implements Solver.
func (g *Greedy) Name() string {
	if g.scoringWorkers() > 1 {
		return "greedy-parallel"
	}
	return "greedy"
}

// scoringWorkers returns the effective parallel fan-out (1 = serial).
func (g *Greedy) scoringWorkers() int {
	if g.Naive || g.Workers < 2 {
		return 1
	}
	return g.Workers
}

// Solve implements Solver. Greedy builds its solution constructively, so
// an interruption carries no incumbent: a partial greedy prefix is not
// feasible.
func (g *Greedy) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if g.Naive {
		return g.solveNaive(ctx, p)
	}
	return g.solveIncremental(ctx, p)
}

// probeCandidate scores one candidate deletion against the maintainer
// state at the start of the round: killed requested tuples, weighted
// collateral, and derivations cut (ok=false when the probe cuts nothing).
// The probe is delete/inspect/undelete, so m is unchanged on return.
func probeCandidate(p *Problem, m *view.Maintainer, req []int, t relation.TID, baseDerivs int) (score float64, ok bool) {
	died := m.Delete(t)
	if p.weights != nil {
		// Sum the collateral in canonical order so the float total does
		// not depend on the maintainer's layout.
		p.sortRefs(died)
	}
	killed := 0
	extra := 0.0
	for _, ref := range died {
		if p.Delta.Has(ref) {
			killed++
		} else {
			extra += p.weight(ref)
		}
	}
	alive := 0
	for _, ref := range req {
		alive += m.AliveDerivations(ref)
	}
	cut := baseDerivs - alive
	m.Undelete(t)
	if cut == 0 {
		return 0, false
	}
	return (float64(killed) + float64(cut)/float64(baseDerivs+1)) / (1 + extra), true
}

// shardBounds splits n candidates into nw contiguous ascending ranges,
// sizes differing by at most one; returns worker w's [lo, hi).
func shardBounds(n, nw, w int) (lo, hi int) {
	base, rem := n/nw, n%nw
	lo = w * base
	if w < rem {
		lo += w
	} else {
		lo += rem
	}
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}

func (g *Greedy) solveIncremental(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	cands := p.candidates()
	m := p.NewMaintainer()
	req := p.requested()
	var chosen []relation.TID

	aliveBad := func() int {
		n := 0
		for _, ref := range req {
			if m.Alive(ref) {
				n++
			}
		}
		return n
	}
	aliveDerivs := func() int {
		n := 0
		for _, ref := range req {
			n += m.AliveDerivations(ref)
		}
		return n
	}

	// Per-worker maintainer clones for parallel scoring, kept in lockstep
	// with m by replaying every chosen deletion into each clone.
	nw := g.scoringWorkers()
	if nw > len(cands) && len(cands) > 0 {
		nw = len(cands)
	}
	var clones []*view.Maintainer
	if nw > 1 {
		clones = make([]*view.Maintainer, nw)
		for w := range clones {
			clones[w] = m.Clone()
		}
	}

	taken := make([]bool, len(cands))
	for {
		st.Checkpoint()
		if err := checkCtx(ctx, g.Name(), nil); err != nil {
			return nil, err
		}
		bad := aliveBad()
		if bad == 0 {
			break
		}
		baseDerivs := aliveDerivs()
		var best int
		var err error
		if nw > 1 {
			best, _, err = g.scoreParallel(ctx, p, clones, req, cands, taken, baseDerivs)
		} else {
			best, _, err = g.scoreSerial(ctx, p, m, req, cands, taken, baseDerivs)
		}
		if err != nil {
			return nil, err
		}
		if best == -1 {
			return nil, fmt.Errorf("core: greedy stuck with %d requested view tuples alive", bad)
		}
		t := cands[best]
		taken[best] = true
		m.Delete(t)
		for _, c := range clones {
			c.Delete(t)
		}
		chosen = append(chosen, t)
	}
	return p.solution(chosen), nil
}

// scoreSerial runs one scoring round over the remaining candidates on the
// caller's maintainer, checkpointing every probeCheckEvery probes.
func (g *Greedy) scoreSerial(ctx context.Context, p *Problem, m *view.Maintainer, req []int, cands []relation.TID, taken []bool, baseDerivs int) (best int, bestScore float64, err error) {
	st := StatsFrom(ctx)
	best, bestScore = -1, -1.0
	probes := 0
	for i, t := range cands {
		if taken[i] {
			continue
		}
		st.AddNodes(1)
		probes++
		if probes%probeCheckEvery == 0 {
			st.Checkpoint()
			if err := checkCtx(ctx, g.Name(), nil); err != nil {
				return -1, 0, err
			}
		}
		score, ok := probeCandidate(p, m, req, t, baseDerivs)
		if !ok {
			continue
		}
		if score > bestScore {
			bestScore, best = score, i
		}
	}
	return best, bestScore, nil
}

// scoreParallel runs one scoring round sharded across the worker clones.
// Worker w probes the contiguous index range shardBounds(len(cands),
// len(clones), w) against clones[w]; the merge walks shards in ascending
// order keeping strictly greater scores, reproducing the serial
// lowest-index tie-break exactly.
func (g *Greedy) scoreParallel(ctx context.Context, p *Problem, clones []*view.Maintainer, req []int, cands []relation.TID, taken []bool, baseDerivs int) (best int, bestScore float64, err error) {
	st := StatsFrom(ctx)
	type shardResult struct {
		idx   int
		score float64
		err   error
	}
	results := make([]shardResult, len(clones))
	var wg sync.WaitGroup
	for w := range clones {
		lo, hi := shardBounds(len(cands), len(clones), w)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			mw := clones[w]
			localBest, localScore := -1, -1.0
			probes := 0
			for i := lo; i < hi; i++ {
				if taken[i] {
					continue
				}
				st.AddNodes(1)
				probes++
				if probes%probeCheckEvery == 0 {
					st.Checkpoint()
					if err := checkCtx(ctx, g.Name(), nil); err != nil {
						results[w] = shardResult{idx: -1, err: err}
						return
					}
				}
				score, ok := probeCandidate(p, mw, req, cands[i], baseDerivs)
				if !ok {
					continue
				}
				if score > localScore {
					localScore, localBest = score, i
				}
			}
			results[w] = shardResult{idx: localBest, score: localScore}
		}(w, lo, hi)
	}
	wg.Wait()
	best, bestScore = -1, -1.0
	for w := range results {
		r := results[w]
		if r.err != nil {
			return -1, 0, r.err
		}
		if r.idx >= 0 && r.score > bestScore {
			bestScore, best = r.score, r.idx
		}
	}
	return best, bestScore, nil
}

func (g *Greedy) solveNaive(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	cands := p.candidates()
	req := p.requested()
	var deleted relation.IDSet
	var chosen []relation.TID

	aliveBad := func() int {
		n := 0
		for _, ref := range req {
			if ref < 0 {
				continue
			}
			if res, pos := p.answer(ref); view.Survives(res, pos, deleted) {
				n++
			}
		}
		return n
	}
	aliveDerivations := func() int {
		n := 0
		for _, ref := range req {
			if ref < 0 {
				continue
			}
			res, pos := p.answer(ref)
			for k := range res.NumDerivations(pos) {
				hit := false
				for _, t := range res.Derivation(pos, k) {
					if deleted.Has(t) {
						hit = true
						break
					}
				}
				if !hit {
					n++
				}
			}
		}
		return n
	}
	collateralWeight := func() float64 {
		w := 0.0
		for _, v := range p.Views {
			for pos := range v.Result.NumAnswers() {
				if id := v.Offset + pos; !p.Delta.Has(id) && !view.Survives(v.Result, pos, deleted) {
					w += p.weight(id)
				}
			}
		}
		return w
	}

	for {
		st.Checkpoint()
		if err := checkCtx(ctx, g.Name(), nil); err != nil {
			return nil, err
		}
		bad := aliveBad()
		if bad == 0 {
			break
		}
		baseCollateral := collateralWeight()
		baseDerivs := aliveDerivations()
		best, bestScore := -1, -1.0
		probes := 0
		for i, t := range cands {
			if deleted.Has(t) {
				continue
			}
			st.AddNodes(1)
			probes++
			if probes%probeCheckEvery == 0 {
				st.Checkpoint()
				if err := checkCtx(ctx, g.Name(), nil); err != nil {
					return nil, err
				}
			}
			deleted.Add(t)
			killed := bad - aliveBad()
			cut := baseDerivs - aliveDerivations()
			extra := collateralWeight() - baseCollateral
			deleted.Remove(t)
			if cut == 0 {
				continue
			}
			score := (float64(killed) + float64(cut)/float64(baseDerivs+1)) / (1 + extra)
			if score > bestScore {
				bestScore, best = score, i
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("core: greedy stuck with %d requested view tuples alive", bad)
		}
		deleted.Add(cands[best])
		chosen = append(chosen, cands[best])
	}
	return p.solution(chosen), nil
}
