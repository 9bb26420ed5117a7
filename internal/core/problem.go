// Package core implements the paper's contribution: the view side-effect
// minimization problem for multiple key-preserving conjunctive queries
// (Section II.C), its balanced variant (Section III), and the full solver
// suite — brute force and single-tuple exact baselines, the greedy
// heuristic, the Red-Blue Set Cover reduction of Claim 1, the balanced
// reduction of Lemma 1, the primal-dual l-approximation of Algorithm 1, the
// low-degree 2√‖V‖ algorithms of Algorithms 2–3, and the exact dynamic
// program of Algorithm 4 for the pivot forest case.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"delprop/internal/classify"
	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
)

// Problem is one instance of the deletion propagation problem: a source
// database D, queries Q, their materialized views V, the deletion request
// ΔV, and optional preservation weights on the view tuples to keep.
//
// Solvers work on dense IDs: base tuples by relation.TID, view tuples by
// ref ID (view.View.Offset plus answer position). Solutions and reports
// name tuples by value.
type Problem struct {
	DB      *relation.Instance
	Queries []*cq.Query
	Views   []*view.View
	Delta   *view.Deletion

	// weights[ref] is the preservation weight of the view tuple with that
	// ref ID; nil means every weight is 1.
	weights []float64

	// skel holds the artifacts shared by every Specialize derivative of
	// the same skeleton. NewProblem creates it; Problem literals in tests
	// fall back to computing on demand without memoization.
	skel *skeleton
}

// skeleton holds everything derived from (database, queries, views) —
// nothing here depends on Delta or weights. The lazily built parts are
// computed once and shared by every Specialize derivative.
type skeleton struct {
	inverted      *view.InvertedIndex
	keyPreserving bool

	// rank[t] is tuple t's position in the canonical tuple order
	// (TupleID.Key bytes); -1 for tuples outside every view.
	rankOnce sync.Once
	rank     []int32

	classOnce sync.Once
	props     []classify.Properties
	classErr  error

	// maint is the maintainer prototype; callers take isolated copies via
	// Maintainer.Clone, never the prototype itself.
	maintOnce sync.Once
	maint     *view.Maintainer

	forestOnce sync.Once
	forest     *pivotLayout
	forestErr  error
}

// Construction errors.
var (
	// ErrNotKeyPreserving is returned by solvers that require every query
	// to be key-preserving.
	ErrNotKeyPreserving = errors.New("core: problem requires key-preserving queries")
	// ErrTooLarge is returned by exponential solvers on oversized inputs.
	ErrTooLarge = errors.New("core: instance too large for this solver")
	// ErrInfeasibleRestriction is returned when a candidate restriction
	// (e.g. the low-degree cap of Algorithm 2) makes some requested view
	// tuple unkillable.
	ErrInfeasibleRestriction = errors.New("core: restriction leaves a requested view tuple unkillable")
)

// NewProblem materializes the views, validates the deletion request, and
// precomputes the provenance index. Weights may be nil.
func NewProblem(db *relation.Instance, queries []*cq.Query, delta *view.Deletion) (*Problem, error) {
	views, err := view.Materialize(queries, db)
	if err != nil {
		return nil, err
	}
	if delta == nil {
		delta = view.NewDeletion()
	}
	if err := delta.Validate(views); err != nil {
		return nil, err
	}
	skel, err := newSkeleton(db, queries, views)
	if err != nil {
		return nil, err
	}
	return &Problem{DB: db, Queries: queries, Views: views, Delta: delta, skel: skel}, nil
}

func newSkeleton(db *relation.Instance, queries []*cq.Query, views []*view.View) (*skeleton, error) {
	s := &skeleton{inverted: view.BuildInvertedIndex(views), keyPreserving: true}
	for _, q := range queries {
		kp, err := q.IsKeyPreserving(cq.InstanceSchemas(db))
		if err != nil {
			return nil, err
		}
		if !kp {
			s.keyPreserving = false
		}
	}
	return s, nil
}

// skeleton returns the shared artifacts, computing them for a Problem
// literal.
func (p *Problem) skeleton() *skeleton {
	if p.skel != nil {
		return p.skel
	}
	s, err := newSkeleton(p.DB, p.Queries, p.Views)
	if err != nil {
		return &skeleton{inverted: view.BuildInvertedIndex(p.Views)}
	}
	return s
}

// QueryProperties returns the classify verdict for every query, computed
// once per skeleton and shared across Specialize derivatives — the solve
// path must never re-run classification for a problem it already
// classified.
func (p *Problem) QueryProperties() ([]classify.Properties, error) {
	s := p.skeleton()
	s.classOnce.Do(func() {
		schemas := cq.InstanceSchemas(p.DB)
		props := make([]classify.Properties, len(p.Queries))
		for i, q := range p.Queries {
			pr, err := classify.Analyze(q, schemas, nil)
			if err != nil {
				s.classErr = err
				return
			}
			props[i] = pr
		}
		s.props = props
	})
	return s.props, s.classErr
}

// NewMaintainer returns an isolated incremental maintainer over the
// problem's views. The O(provenance) build happens once per skeleton; each
// call pays only the O(state) Clone so concurrent solves never share
// mutable maintainer state.
func (p *Problem) NewMaintainer() *view.Maintainer {
	s := p.skeleton()
	s.maintOnce.Do(func() { s.maint = view.NewMaintainer(p.Views) })
	return s.maint.Clone()
}

// Specialize derives a new Problem against the same skeleton — database,
// queries, materialized views, provenance index, classification,
// maintainer prototype and pivot-forest layout are shared by pointer —
// with a fresh deletion request and no weights. It is the warm-session
// counterpart of NewProblem: validation of delta against the views is the
// only work done.
func (p *Problem) Specialize(delta *view.Deletion) (*Problem, error) {
	if delta == nil {
		delta = view.NewDeletion()
	}
	if err := delta.Validate(p.Views); err != nil {
		return nil, err
	}
	return &Problem{DB: p.DB, Queries: p.Queries, Views: p.Views, Delta: delta, skel: p.skel}, nil
}

// IsKeyPreserving reports whether every query of the problem is
// key-preserving.
func (p *Problem) IsKeyPreserving() bool { return p.skeleton().keyPreserving }

// Inverted returns the tuple→view-tuple occurrence index.
func (p *Problem) Inverted() *view.InvertedIndex { return p.skeleton().inverted }

// Weight returns the preservation weight of a view tuple (1 by default).
func (p *Problem) Weight(ref view.TupleRef) float64 {
	id, ok := view.RefID(p.Views, ref)
	if !ok {
		return 1
	}
	return p.weight(id)
}

// weight returns the preservation weight of the view tuple with ref ID id.
func (p *Problem) weight(id int) float64 {
	if p.weights == nil {
		return 1
	}
	return p.weights[id]
}

// SetWeight assigns a preservation weight to a view tuple; references to
// tuples outside the views are ignored.
func (p *Problem) SetWeight(ref view.TupleRef, w float64) {
	id, ok := view.RefID(p.Views, ref)
	if !ok {
		return
	}
	if p.weights == nil {
		p.weights = make([]float64, p.TotalViewSize())
		for i := range p.weights {
			p.weights[i] = 1
		}
	}
	p.weights[id] = w
}

// RequestKey identifies the per-request inputs of a problem — the
// requested view tuples and the weights that differ from 1 — by ref ID. Two
// problems specialized from one skeleton with equal keys have the same
// objective, so it keys caches of request-dependent results.
func (p *Problem) RequestKey() string {
	ids := append([]int(nil), p.requested()...)
	sort.Ints(ids)
	var b []byte
	for _, id := range ids {
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ',')
	}
	for id, w := range p.weights {
		if w != 1 {
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(id), 10)
			b = append(b, '=')
			b = strconv.AppendFloat(b, w, 'g', -1, 64)
		}
	}
	return string(b)
}

// requested returns the ref IDs of ΔV in request order (-1 for a request
// naming no view tuple), resolving the request on first use.
func (p *Problem) requested() []int {
	p.Delta.Bind(p.Views)
	return p.Delta.IDs()
}

// PreservedRefs returns V \ ΔV: every view tuple not requested for
// deletion, in deterministic (view, answer) order.
func (p *Problem) PreservedRefs() []view.TupleRef {
	p.requested()
	var out []view.TupleRef
	for _, v := range p.Views {
		for pos, ans := range v.Result.Answers() {
			if !p.Delta.Has(v.Offset + pos) {
				out = append(out, view.TupleRef{View: v.Index, Tuple: ans.Tuple})
			}
		}
	}
	return out
}

// TotalViewSize returns ‖V‖.
func (p *Problem) TotalViewSize() int { return view.TotalSize(p.Views) }

// MaxArity returns l = max arity(Q).
func (p *Problem) MaxArity() int { return view.MaxArity(p.Views) }

// Answer returns the provenance answer behind a view tuple reference.
func (p *Problem) Answer(ref view.TupleRef) (*cq.Answer, bool) {
	if ref.View < 0 || ref.View >= len(p.Views) {
		return nil, false
	}
	return p.Views[ref.View].Result.Lookup(ref.Tuple)
}

// answer returns the provenance answer of the view tuple with ref ID id.
func (p *Problem) answer(id int) *cq.Answer {
	_, ans := view.Resolve(p.Views, id)
	return ans
}

// ranks returns the canonical order of the tuples in the views: rank[t]
// is t's position when sorted by TupleID.Key. Built once per skeleton, it
// replaces every Key-string sort and tie-break.
func (p *Problem) ranks() []int32 {
	s := p.skeleton()
	s.rankOnce.Do(func() {
		// The keys of the tuples in views, back to back in one buffer.
		s.rank = make([]int32, p.DB.NumIDs())
		var ids []relation.TID
		var keys []byte
		var ends []int
		for t := range s.rank {
			s.rank[t] = -1
			if id := relation.TID(t); len(s.inverted.Occurrences(id)) > 0 {
				ids = append(ids, id)
				keys = p.DB.ByID(id).AppendKey(keys)
				ends = append(ends, len(keys))
			}
		}
		key := func(i int) []byte {
			if i == 0 {
				return keys[:ends[0]]
			}
			return keys[ends[i-1]:ends[i]]
		}
		order := make([]int, len(ids))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return bytes.Compare(key(order[a]), key(order[b])) < 0 })
		for r, i := range order {
			s.rank[ids[i]] = int32(r)
		}
	})
	return s.rank
}

// sortTuples orders tuple IDs canonically: by rank, falling back to the
// key itself for tuples outside every view (inserted after the skeleton
// was built, say), which rank agrees with.
func (p *Problem) sortTuples(ids []relation.TID) {
	rank := p.ranks()
	ranked := func(t relation.TID) bool { return int(t) < len(rank) && rank[t] >= 0 }
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if ranked(a) && ranked(b) {
			return rank[a] < rank[b]
		}
		return p.DB.ByID(a).Key() < p.DB.ByID(b).Key()
	})
}

// refKey returns the canonical sort key of the view tuple with ref ID id.
func (p *Problem) refKey(id int) string {
	ref, _ := view.Resolve(p.Views, id)
	return ref.Key()
}

// sortRefs orders ref IDs canonically, by TupleRef.Key.
func (p *Problem) sortRefs(ids []int) {
	sort.Slice(ids, func(i, j int) bool { return p.refKey(ids[i]) < p.refKey(ids[j]) })
}

// candidates returns the base tuples occurring in some derivation of
// some requested view tuple, in canonical order.
func (p *Problem) candidates() []relation.TID {
	var seen relation.IDSet
	var out []relation.TID
	for _, id := range p.requested() {
		if id < 0 {
			continue
		}
		for _, d := range p.answer(id).Derivations {
			for _, t := range d {
				if !seen.Has(t) {
					seen.Add(t)
					out = append(out, t)
				}
			}
		}
	}
	p.sortTuples(out)
	return out
}

// CandidateTuples returns the base tuples occurring in some derivation of
// some requested view tuple — the only deletions that can ever help, since
// any other deletion leaves ΔV intact and can only add collateral damage.
// The result is in canonical order (by tuple key) for determinism.
func (p *Problem) CandidateTuples() []relation.TupleID {
	return p.tupleIDs(p.candidates())
}

// tupleIDs resolves tuple IDs to identities.
func (p *Problem) tupleIDs(ids []relation.TID) []relation.TupleID {
	out := make([]relation.TupleID, len(ids))
	for i, id := range ids {
		out[i] = p.DB.ByID(id)
	}
	return out
}

// solution builds a Solution from tuple IDs, in the given order.
func (p *Problem) solution(ids []relation.TID) *Solution {
	return &Solution{Deleted: p.tupleIDs(ids)}
}

// Solution is a proposed source deletion ΔD.
type Solution struct {
	Deleted []relation.TupleID
}

// String renders the deletion sorted.
func (s *Solution) String() string {
	parts := make([]string, len(s.Deleted))
	for i, id := range s.Deleted {
		parts[i] = id.String()
	}
	sort.Strings(parts)
	return "ΔD{" + strings.Join(parts, ", ") + "}"
}

// Report is the evaluation of a solution against a problem.
type Report struct {
	// Feasible is true when every requested view tuple is eliminated
	// (condition (a) of Section II.C).
	Feasible bool
	// SideEffect is the weighted count of preserved view tuples destroyed
	// (Σ si of Section II.C, weighted).
	SideEffect float64
	// Collateral lists the destroyed preserved view tuples.
	Collateral []view.TupleRef
	// BadRemaining counts requested view tuples still alive.
	BadRemaining int
	// Balanced is the balanced objective of Section III: BadRemaining +
	// SideEffect (each surviving bad tuple costs 1).
	Balanced float64
	// DeletedCount is |ΔD|.
	DeletedCount int
}

// String renders the report on one line for CLI output and logs.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "feasible=%v side-effect=%v deleted=%d", r.Feasible, r.SideEffect, r.DeletedCount)
	if r.BadRemaining > 0 {
		fmt.Fprintf(&b, " bad-remaining=%d balanced=%v", r.BadRemaining, r.Balanced)
	}
	if len(r.Collateral) > 0 {
		parts := make([]string, len(r.Collateral))
		for i, ref := range r.Collateral {
			parts[i] = ref.String()
		}
		sort.Strings(parts)
		fmt.Fprintf(&b, " collateral=[%s]", strings.Join(parts, " "))
	}
	return b.String()
}

// Evaluate scores a solution using provenance (no re-evaluation of the
// queries). Tests cross-check this against full re-evaluation.
func (p *Problem) Evaluate(sol *Solution) Report {
	var set relation.IDSet
	for _, id := range sol.Deleted {
		if t, ok := p.DB.ID(id); ok {
			set.Add(t)
		}
	}
	rep := p.evaluate(set, true)
	rep.DeletedCount = len(sol.Deleted)
	return rep
}

// evaluate scores the deletion of the tuples in set, listing the
// collateral view tuples when asked. DeletedCount is left to the caller.
func (p *Problem) evaluate(set relation.IDSet, collateral bool) Report {
	return p.score(func(_ *view.View, ans *cq.Answer) bool { return !view.Survives(ans, set) }, collateral)
}

// evaluateIDs scores the deletion of the given tuple IDs.
func (p *Problem) evaluateIDs(ids []relation.TID) Report {
	var set relation.IDSet
	for _, id := range ids {
		set.Add(id)
	}
	rep := p.evaluate(set, true)
	rep.DeletedCount = len(ids)
	return rep
}

// score tallies the objective given which view tuples a deletion
// destroys.
func (p *Problem) score(destroyed func(*view.View, *cq.Answer) bool, collateral bool) Report {
	var rep Report
	p.requested()
	removedRequested := 0
	for _, v := range p.Views {
		for pos, ans := range v.Result.Answers() {
			if !destroyed(v, ans) {
				continue
			}
			id := v.Offset + pos
			if p.Delta.Has(id) {
				removedRequested++
				continue
			}
			if collateral {
				rep.Collateral = append(rep.Collateral, view.TupleRef{View: v.Index, Tuple: ans.Tuple})
			}
			rep.SideEffect += p.weight(id)
		}
	}
	rep.BadRemaining = p.Delta.Len() - removedRequested
	rep.Feasible = rep.BadRemaining == 0
	rep.Balanced = float64(rep.BadRemaining) + rep.SideEffect
	return rep
}

// EvaluateByReevaluation recomputes every view on D\ΔD and scores the
// solution from scratch. Slower but independent of the provenance cache;
// used to validate Evaluate.
func (p *Problem) EvaluateByReevaluation(sol *Solution) (Report, error) {
	db2 := p.DB.Without(sol.Deleted)
	after := make([]*cq.Result, len(p.Views))
	for i, v := range p.Views {
		res, err := cq.Evaluate(v.Query, db2)
		if err != nil {
			return Report{}, err
		}
		after[i] = res
	}
	rep := p.score(func(v *view.View, ans *cq.Answer) bool { return !after[v.Index].Contains(ans.Tuple) }, true)
	rep.DeletedCount = len(sol.Deleted)
	return rep, nil
}

// Solver is the common interface of all deletion propagation algorithms.
type Solver interface {
	// Name returns a short identifier for reports and benchmarks.
	Name() string
	// Solve computes a source deletion for the problem. Implementations
	// document whether the result is exact or approximate and any
	// preconditions (key-preserving, forest structure, size bounds).
	// Solvers poll ctx cooperatively and stop with an *Interrupted error
	// (see cancel.go) when it is done; the error carries the best
	// feasible solution found so far when the algorithm maintains one.
	Solve(ctx context.Context, p *Problem) (*Solution, error)
}

// requireKeyPreserving is shared by solvers whose correctness rests on the
// one-derivation-per-view-tuple property.
func requireKeyPreserving(p *Problem, solver string) error {
	if !p.IsKeyPreserving() {
		return fmt.Errorf("%w (solver %s)", ErrNotKeyPreserving, solver)
	}
	return nil
}
