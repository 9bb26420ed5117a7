package core

import (
	"context"
	"fmt"

	"delprop/internal/cq"
	"delprop/internal/flow"
	"delprop/internal/relation"
)

// This file implements resilience (Freire et al., cited for the Table
// II/III triad dichotomy): the minimum number of source tuples whose
// deletion empties the query result — deletion propagation with ΔV = Q(D)
// and the source side-effect objective. Two-atom self-join-free queries
// are triad-free, and their resilience is a minimum vertex cover of the
// bipartite join graph, solved exactly in polynomial time via max-flow and
// König's theorem; the general case falls back to the exact hitting-set
// search.

// Resilience computes the resilience of q on db: the size of a minimum
// source deletion emptying Q(D), together with a witness deletion. It uses
// the polynomial bipartite algorithm when the query has exactly two
// self-join-free atoms, and SourceExact otherwise (exponential worst
// case; bounded by maxCandidates, 0 = default). The exact hitting-set
// search polls ctx and stops with an *Interrupted error when it is done.
func Resilience(ctx context.Context, q *cq.Query, db *relation.Instance, maxCandidates int) (int, *Solution, error) {
	if len(q.Body) == 2 && q.IsSelfJoinFree() {
		return resilienceBipartite(q, db)
	}
	return resilienceExact(ctx, q, db, maxCandidates)
}

// resilienceBipartite solves the two-atom sj-free case via minimum vertex
// cover: every derivation joins one tuple of the first atom with one of
// the second; the deletion must hit every derivation.
func resilienceBipartite(q *cq.Query, db *relation.Instance) (int, *Solution, error) {
	res, err := cq.Evaluate(q, db)
	if err != nil {
		return 0, nil, err
	}
	leftIdx := make(map[relation.TID]int)
	rightIdx := make(map[relation.TID]int)
	var leftIDs, rightIDs []relation.TID
	var edges [][2]int
	for i := range res.NumAnswers() {
		for k := range res.NumDerivations(i) {
			d := res.Derivation(i, k)
			l, r := d[0], d[1]
			li, ok := leftIdx[l]
			if !ok {
				li = len(leftIDs)
				leftIdx[l] = li
				leftIDs = append(leftIDs, l)
			}
			ri, ok := rightIdx[r]
			if !ok {
				ri = len(rightIDs)
				rightIdx[r] = ri
				rightIDs = append(rightIDs, r)
			}
			edges = append(edges, [2]int{li, ri})
		}
	}
	if len(edges) == 0 {
		return 0, &Solution{}, nil
	}
	left, right, err := flow.BipartiteVertexCover(len(leftIDs), len(rightIDs), edges)
	if err != nil {
		return 0, nil, fmt.Errorf("core: resilience cover: %w", err)
	}
	sol := &Solution{}
	for _, li := range left {
		sol.Deleted = append(sol.Deleted, db.ByID(leftIDs[li]))
	}
	for _, ri := range right {
		sol.Deleted = append(sol.Deleted, db.ByID(rightIDs[ri]))
	}
	return len(sol.Deleted), sol, nil
}

// resilienceExact expresses resilience as the source side-effect problem
// with ΔV = Q(D) and solves it exactly.
func resilienceExact(ctx context.Context, q *cq.Query, db *relation.Instance, maxCandidates int) (int, *Solution, error) {
	p, err := NewProblem(db, []*cq.Query{q}, nil)
	if err != nil {
		return 0, nil, err
	}
	v := p.Views[0]
	for i := range v.Result.NumAnswers() {
		p.Delta.Add(v.Ref(i))
	}
	if p.Delta.Len() == 0 {
		return 0, &Solution{}, nil
	}
	sol, err := (&SourceExact{MaxCandidates: maxCandidates}).Solve(ctx, p)
	if err != nil {
		return 0, nil, err
	}
	return len(sol.Deleted), sol, nil
}

// VerifyEmpty reports whether deleting the solution's tuples really
// empties Q(D); tests and callers use it as the resilience postcondition.
func VerifyEmpty(q *cq.Query, db *relation.Instance, sol *Solution) (bool, error) {
	res, err := cq.Evaluate(q, db.Without(sol.Deleted))
	if err != nil {
		return false, err
	}
	return res.NumAnswers() == 0, nil
}
