// Package lineage exposes the provenance connection of Section V: why- and
// where-provenance for view tuples, derived from the evaluator's join
// paths. Why-provenance of a view tuple is the set of its derivations
// (witness sets of base tuples); where-provenance of one output cell is
// the set of source cells it was copied from. Deletion propagation is the
// inverse problem — these reports are what the data-annotation application
// propagates along.
package lineage

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
)

// ErrUnknown is returned when the requested view tuple or column does not
// exist.
var ErrUnknown = errors.New("lineage: unknown view tuple or column")

// Witness is one why-provenance witness: the base tuples of one
// derivation, sorted by key.
type Witness []relation.TupleID

// String renders the witness as {T1(..), T2(..)}.
func (w Witness) String() string {
	parts := make([]string, len(w))
	for i, id := range w {
		parts[i] = id.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Why returns the why-provenance of a view tuple: one witness per
// derivation. For key-preserving queries there is exactly one witness.
func Why(views []*view.View, ref view.TupleRef) ([]Witness, error) {
	ans, err := lookup(views, ref)
	if err != nil {
		return nil, err
	}
	db := views[ref.View].Result.DB
	out := make([]Witness, 0, len(ans.Derivations))
	for _, d := range ans.Derivations {
		var w Witness
		for _, t := range view.Distinct(d) {
			w = append(w, db.ByID(t))
		}
		sort.Slice(w, func(i, j int) bool { return w[i].Key() < w[j].Key() })
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out, nil
}

// Cell identifies one source cell: a base tuple plus an attribute
// position.
type Cell struct {
	Tuple relation.TupleID
	// Position is the attribute index within the tuple.
	Position int
}

// String renders the cell as T1(a,b)[1].
func (c Cell) String() string {
	return fmt.Sprintf("%s[%d]", c.Tuple, c.Position)
}

// Where returns the where-provenance of column col of a view tuple: every
// source cell whose value was copied into that output position, across all
// derivations. Output positions holding head constants have empty
// where-provenance.
func Where(views []*view.View, ref view.TupleRef, col int) ([]Cell, error) {
	ans, err := lookup(views, ref)
	if err != nil {
		return nil, err
	}
	q := views[ref.View].Query
	if col < 0 || col >= len(q.Head) {
		return nil, fmt.Errorf("%w: column %d of %d", ErrUnknown, col, len(q.Head))
	}
	head := q.Head[col]
	if !head.IsVar() {
		return nil, nil
	}
	db := views[ref.View].Result.DB
	seen := make(map[string]Cell)
	for _, d := range ans.Derivations {
		// The derivation holds one base tuple per body atom, in body
		// order; the head variable's occurrences in atoms give the source
		// positions.
		for ai, atom := range q.Body {
			for p, term := range atom.Terms {
				if term.IsVar() && term.Var == head.Var {
					c := Cell{Tuple: db.ByID(d[ai]), Position: p}
					seen[c.String()] = c
				}
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Cell, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out, nil
}

// Report is a complete lineage report for one view tuple.
type Report struct {
	Ref view.TupleRef
	Why []Witness
	// WhereByColumn holds the where-provenance per output position.
	WhereByColumn [][]Cell
}

// Explain builds the full report.
func Explain(views []*view.View, ref view.TupleRef) (*Report, error) {
	why, err := Why(views, ref)
	if err != nil {
		return nil, err
	}
	q := views[ref.View].Query
	rep := &Report{Ref: ref, Why: why}
	for col := range q.Head {
		cells, err := Where(views, ref, col)
		if err != nil {
			return nil, err
		}
		rep.WhereByColumn = append(rep.WhereByColumn, cells)
	}
	return rep, nil
}

// String renders the report for human consumption.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lineage of %s\n", r.Ref)
	for i, w := range r.Why {
		fmt.Fprintf(&b, "  why[%d]: %s\n", i, w)
	}
	for col, cells := range r.WhereByColumn {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c.String()
		}
		fmt.Fprintf(&b, "  where[%d]: %s\n", col, strings.Join(parts, ", "))
	}
	return b.String()
}

// AffectedBy returns the view tuples whose why-provenance would lose a
// witness if the given base tuple were deleted — the forward direction of
// deletion propagation, used by the annotation application to push
// annotations from source cells to view tuples.
func AffectedBy(views []*view.View, id relation.TupleID) []view.TupleRef {
	if len(views) == 0 {
		return nil
	}
	t, ok := views[0].Result.DB.ID(id)
	if !ok {
		return nil
	}
	idx := view.BuildInvertedIndex(views)
	var out []view.TupleRef
	for _, occ := range idx.Occurrences(t) {
		ref, _ := view.Resolve(views, int(occ.Ref))
		out = append(out, ref)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

func lookup(views []*view.View, ref view.TupleRef) (*cq.Answer, error) {
	if ref.View < 0 || ref.View >= len(views) {
		return nil, fmt.Errorf("%w: view %d", ErrUnknown, ref.View)
	}
	ans, ok := views[ref.View].Result.Lookup(ref.Tuple)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, ref)
	}
	return ans, nil
}
