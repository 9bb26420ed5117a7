// Package view implements materialized views with provenance for the
// multi-query deletion-propagation problem (Section II.C of the paper): the
// set V = {V1..Vm} with Vi = Qi(D), deletion requests ΔV, the semantics of
// which view tuples survive a source deletion ΔD, and the inverted
// tuple→view-tuple index the paper's key-preserving observation makes
// possible ("finding the occurrences of key values of the deleted relation
// tuples in the view").
//
// Every view tuple has a dense ref ID: its view's Offset plus its position
// in the view's answers. The inverted index and the maintainer are slices
// indexed by ref ID and by base-tuple ID (relation.TID).
package view

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"delprop/internal/cq"
	"delprop/internal/relation"
)

// View is one materialized query result with provenance.
type View struct {
	Index  int // position within the multi-view problem
	Query  *cq.Query
	Result *cq.Result
	// Offset is the ref ID of the view's first answer: the views' answers
	// are numbered consecutively in view order.
	Offset int
}

// Materialize evaluates every query over the instance, producing the view
// set V. Queries are validated; the first failure aborts.
func Materialize(queries []*cq.Query, db *relation.Instance) ([]*View, error) {
	out := make([]*View, len(queries))
	offset := 0
	for i, q := range queries {
		res, err := cq.Evaluate(q, db)
		if err != nil {
			return nil, fmt.Errorf("view %d (%s): %w", i, q.Name, err)
		}
		out[i] = &View{Index: i, Query: q, Result: res, Offset: offset}
		offset += res.NumAnswers()
	}
	return out, nil
}

// TupleRef identifies one view tuple within the multi-view problem.
type TupleRef struct {
	View  int
	Tuple relation.Tuple
}

// Key returns a canonical string for the reference. Its byte order is the
// canonical view-tuple order solvers break ties by.
func (r TupleRef) Key() string {
	return string(r.AppendKey(nil))
}

// AppendKey appends Key's bytes to b.
func (r TupleRef) AppendKey(b []byte) []byte {
	b = strconv.AppendInt(b, int64(r.View), 10)
	b = append(b, '|')
	return r.Tuple.AppendEncode(b)
}

// String renders the reference as V2(a,b).
func (r TupleRef) String() string {
	return fmt.Sprintf("V%d%s", r.View, r.Tuple)
}

// RefID returns the ref ID of a view tuple, if it is one.
func RefID(views []*View, ref TupleRef) (int, bool) {
	if ref.View < 0 || ref.View >= len(views) {
		return 0, false
	}
	v := views[ref.View]
	pos, ok := v.Result.Position(ref.Tuple)
	return v.Offset + pos, ok
}

// Resolve returns the view tuple with the given ref ID and its answer.
func Resolve(views []*View, id int) (TupleRef, *cq.Answer) {
	vi := sort.Search(len(views), func(i int) bool { return views[i].Offset > id }) - 1
	v := views[vi]
	ans := v.Result.Answers()[id-v.Offset]
	return TupleRef{View: v.Index, Tuple: ans.Tuple}, ans
}

// Deletion is the request ΔV: for each view, the set of view tuples to
// eliminate.
type Deletion struct {
	refs []TupleRef
	seen map[refKey]struct{}
	// Set by Bind: the views the request was resolved against, the ref
	// ID of each request (-1 when it names no view tuple) and membership
	// by ref ID.
	mu     sync.Mutex
	views  []*View
	ids    []int
	member []bool
}

type refKey struct {
	view  int
	tuple string
}

// NewDeletion builds a deletion request from references. Duplicates are
// collapsed.
func NewDeletion(refs ...TupleRef) *Deletion {
	d := &Deletion{seen: make(map[refKey]struct{})}
	for _, r := range refs {
		d.Add(r)
	}
	return d
}

// Add inserts one reference. After Bind the reference is resolved against
// the bound views immediately.
func (d *Deletion) Add(r TupleRef) {
	k := refKey{r.View, r.Tuple.Encode()}
	if _, ok := d.seen[k]; ok {
		return
	}
	d.seen[k] = struct{}{}
	d.refs = append(d.refs, r)
	if d.views != nil {
		id, ok := RefID(d.views, r)
		if !ok {
			id = -1
		} else {
			d.member[id] = true
		}
		d.ids = append(d.ids, id)
	}
}

// Contains reports whether the reference is requested for deletion.
func (d *Deletion) Contains(r TupleRef) bool {
	_, ok := d.seen[refKey{r.View, r.Tuple.Encode()}]
	return ok
}

// Has reports whether the view tuple with the given ref ID is requested.
// It needs a prior Bind.
func (d *Deletion) Has(id int) bool { return id >= 0 && id < len(d.member) && d.member[id] }

// IDs returns the ref IDs of the requests in insertion order, -1 for a
// request naming no view tuple. It needs a prior Bind; the slice is
// shared and must not be mutated.
func (d *Deletion) IDs() []int { return d.ids[:len(d.ids):len(d.ids)] }

// Len returns ‖ΔV‖, the total number of view tuples requested.
func (d *Deletion) Len() int { return len(d.refs) }

// Refs returns the references in insertion order.
func (d *Deletion) Refs() []TupleRef {
	return append([]TupleRef(nil), d.refs...)
}

// PerView splits the deletion by view index.
func (d *Deletion) PerView() map[int][]TupleRef {
	out := make(map[int][]TupleRef)
	for _, r := range d.refs {
		out[r.View] = append(out[r.View], r)
	}
	return out
}

// String renders the request sorted, for debugging.
func (d *Deletion) String() string {
	parts := make([]string, 0, len(d.refs))
	for _, r := range d.refs {
		parts = append(parts, r.String())
	}
	sort.Strings(parts)
	return "ΔV{" + strings.Join(parts, ", ") + "}"
}

// ErrUnknownViewTuple is returned when a deletion request names a tuple not
// present in its view.
var ErrUnknownViewTuple = errors.New("view: deletion names unknown view tuple")

// Validate checks that every requested deletion is an actual view tuple,
// resolving the requests to ref IDs against views (Bind).
func (d *Deletion) Validate(views []*View) error {
	d.Bind(views)
	for i, r := range d.refs {
		if r.View < 0 || r.View >= len(views) {
			return fmt.Errorf("%w: view index %d out of range", ErrUnknownViewTuple, r.View)
		}
		if d.ids[i] < 0 {
			return fmt.Errorf("%w: %s", ErrUnknownViewTuple, r)
		}
	}
	return nil
}

// Bind resolves the requests to ref IDs against views, once per view set;
// a request naming no view tuple resolves to -1. It is safe for
// concurrent use; IDs and Has read what the last Bind resolved.
func (d *Deletion) Bind(views []*View) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.views != nil && len(d.views) == len(views) && (len(views) == 0 || &d.views[0] == &views[0]) {
		return
	}
	ids := make([]int, len(d.refs))
	member := make([]bool, TotalSize(views))
	for i, r := range d.refs {
		id, ok := RefID(views, r)
		if !ok {
			id = -1
		} else {
			member[id] = true
		}
		ids[i] = id
	}
	d.views, d.ids, d.member = views, ids, member
}

// TotalSize returns ‖V‖: the total number of view tuples across all views,
// which bounds every ref ID.
func TotalSize(views []*View) int {
	if len(views) == 0 {
		return 0
	}
	last := views[len(views)-1]
	return last.Offset + last.Result.NumAnswers()
}

// MaxArity returns l = max arity(Q) over the views' queries; 0 for an empty
// set.
func MaxArity(views []*View) int {
	l := 0
	for _, v := range views {
		if a := v.Query.Arity(); a > l {
			l = a
		}
	}
	return l
}

// Survives reports whether the answer still holds once the tuples in
// deleted are removed from the source: at least one derivation must avoid
// every deleted tuple. For key-preserving queries there is exactly one
// derivation, so this degenerates to "no tuple of the join path is
// deleted".
func Survives(ans *cq.Answer, deleted relation.IDSet) bool {
	for _, d := range ans.Derivations {
		hit := false
		for _, id := range d {
			if deleted.Has(id) {
				hit = true
				break
			}
		}
		if !hit {
			return true
		}
	}
	return false
}

// Distinct returns the distinct tuple IDs of d in first-occurrence order
// (self-joins may repeat a tuple across atoms). Without repeats it returns
// d itself, which must not be mutated.
func Distinct(d cq.Derivation) []relation.TID {
	for i, id := range d {
		if slices.Contains(d[:i], id) {
			out := append([]relation.TID(nil), d[:i]...)
			for _, id := range d[i+1:] {
				if !slices.Contains(out, id) {
					out = append(out, id)
				}
			}
			return out
		}
	}
	return d
}

// idBound returns a bound on the tuple IDs in the views' provenance: the
// views share one instance.
func idBound(views []*View) int {
	if len(views) == 0 {
		return 0
	}
	return views[0].Result.DB.NumIDs()
}

// Occurrence records that a base tuple participates in (a derivation of) a
// view tuple.
type Occurrence struct {
	// Ref is the view tuple's ref ID.
	Ref int32
	// Critical reports whether deleting the base tuple necessarily kills
	// the view tuple, i.e. the tuple occurs in every derivation of it. For
	// key-preserving queries every occurrence is critical.
	Critical bool
}

// InvertedIndex maps each base tuple to the view tuples it occurs in. This
// is the structure behind the paper's key observation that "checking the
// view side-effect can be easily performed by finding the occurrences of
// key values of the deleted relation tuples in the view".
type InvertedIndex struct {
	occ    [][]Occurrence // by tuple ID, in ref ID order
	tuples int
}

// BuildInvertedIndex scans all views' provenance.
func BuildInvertedIndex(views []*View) *InvertedIndex {
	nt := idBound(views)
	// scan yields every (tuple, occurrence) pair in ref order; count[t]
	// is the number of the current answer's derivations containing t.
	count := make([]int32, nt)
	var touched []relation.TID
	scan := func(yield func(relation.TID, Occurrence)) {
		for _, v := range views {
			for pos, ans := range v.Result.Answers() {
				touched = touched[:0]
				for _, d := range ans.Derivations {
					for i, id := range d {
						if slices.Contains(d[:i], id) {
							continue
						}
						if count[id] == 0 {
							touched = append(touched, id)
						}
						count[id]++
					}
				}
				total := int32(len(ans.Derivations))
				for _, id := range touched {
					yield(id, Occurrence{Ref: int32(v.Offset + pos), Critical: count[id] == total})
					count[id] = 0
				}
			}
		}
	}
	// Count, then fill one backing array with a row per tuple.
	start := make([]int, nt+1)
	scan(func(id relation.TID, _ Occurrence) { start[id+1]++ })
	for t := 0; t < nt; t++ {
		start[t+1] += start[t]
	}
	backing := make([]Occurrence, 0, start[nt])
	idx := &InvertedIndex{occ: make([][]Occurrence, nt)}
	for t := range idx.occ {
		idx.occ[t] = backing[start[t]:start[t]:start[t+1]]
		if start[t+1] > start[t] {
			idx.tuples++
		}
	}
	scan(func(id relation.TID, o Occurrence) { idx.occ[id] = append(idx.occ[id], o) })
	return idx
}

// Occurrences returns the view tuples the base tuple participates in, in
// ref ID order.
func (idx *InvertedIndex) Occurrences(id relation.TID) []Occurrence {
	if int(id) >= len(idx.occ) {
		return nil
	}
	return idx.occ[id]
}

// Len returns the number of distinct base tuples appearing in views.
func (idx *InvertedIndex) Len() int { return idx.tuples }
