package view

import (
	"delprop/internal/relation"
	"slices"
)

// Maintainer tracks the live/dead state of every view tuple under a
// growing source deletion, updating incrementally from provenance instead
// of re-evaluating queries: deleting a base tuple kills the derivations it
// participates in, and a view tuple dies when its last derivation does.
// This is the "finding the occurrences of key values of the deleted
// relation tuples in the view" procedure of Section II.C, generalized to
// multi-derivation (non-key-preserving) view tuples via per-derivation
// reference counts.
//
// View tuples are addressed by ref ID and base tuples by relation.TID; the
// mutable state is flat slices, so Clone is a copy.
type Maintainer struct {
	*provenance
	// derivAlive[ref] = number of still-alive derivations.
	derivAlive []int32
	// derivHit[derivation] = number of deleted tuples on that derivation
	// (alive while 0).
	derivHit []int32
	deleted  []bool // by tuple ID
	dead     []bool // by ref ID
	nDeleted int
	nDead    int
	// changed backs the slices Delete and Undelete return.
	changed []int
}

// provenance is the immutable index a maintainer and its clones share.
type provenance struct {
	// derivRef maps each derivation (numbered in ref order) to its ref.
	derivRef []int32
	// The derivations containing tuple t are occDeriv[occStart[t]:occStart[t+1]].
	occStart []int32
	occDeriv []int32
	// derivs[ref] = number of derivations of the ref.
	derivs []int32
}

// NewMaintainer indexes the views for incremental deletion.
func NewMaintainer(views []*View) *Maintainer {
	nt := idBound(views)
	pv := &provenance{
		occStart: make([]int32, nt+1),
		derivs:   make([]int32, TotalSize(views)),
	}
	// Two passes over the provenance: count each tuple's occurrences,
	// then fill the compressed rows in (ref, derivation) order.
	for _, v := range views {
		for pos, ans := range v.Result.Answers() {
			pv.derivs[v.Offset+pos] = int32(len(ans.Derivations))
			for _, d := range ans.Derivations {
				for i, id := range d {
					if !slices.Contains(d[:i], id) {
						pv.occStart[id+1]++
					}
				}
			}
		}
	}
	for t := 1; t <= nt; t++ {
		pv.occStart[t] += pv.occStart[t-1]
	}
	pv.occDeriv = make([]int32, pv.occStart[nt])
	fill := append([]int32(nil), pv.occStart[:nt]...)
	for _, v := range views {
		for pos, ans := range v.Result.Answers() {
			for _, d := range ans.Derivations {
				g := int32(len(pv.derivRef))
				pv.derivRef = append(pv.derivRef, int32(v.Offset+pos))
				for i, id := range d {
					if !slices.Contains(d[:i], id) {
						pv.occDeriv[fill[id]] = g
						fill[id]++
					}
				}
			}
		}
	}
	return &Maintainer{
		provenance: pv,
		derivAlive: append([]int32(nil), pv.derivs...),
		derivHit:   make([]int32, len(pv.derivRef)),
		deleted:    make([]bool, nt),
		dead:       make([]bool, len(pv.derivs)),
	}
}

// Clone returns an independent copy of the maintainer: the clone shares
// the immutable provenance index and copies the mutable deletion state,
// so Delete/Undelete on the clone never touch the original. Parallel
// greedy scoring hands one clone per worker; cloning is O(state) while
// re-indexing with NewMaintainer is O(provenance).
func (m *Maintainer) Clone() *Maintainer {
	return &Maintainer{
		provenance: m.provenance,
		derivAlive: append([]int32(nil), m.derivAlive...),
		derivHit:   append([]int32(nil), m.derivHit...),
		deleted:    append([]bool(nil), m.deleted...),
		dead:       append([]bool(nil), m.dead...),
		nDeleted:   m.nDeleted,
		nDead:      m.nDead,
	}
}

// occurrences returns the derivations containing tuple id.
func (m *Maintainer) occurrences(id relation.TID) []int32 {
	if int(id)+1 >= len(m.occStart) {
		return nil
	}
	return m.occDeriv[m.occStart[id]:m.occStart[id+1]]
}

// Delete applies one source-tuple deletion and returns the ref IDs of the
// view tuples that died as a consequence, in ascending order (empty if
// none, or if the tuple was already deleted). The slice is reused by the
// next Delete or Undelete.
func (m *Maintainer) Delete(id relation.TID) []int {
	m.changed = m.changed[:0]
	if int(id) < len(m.deleted) && m.deleted[id] {
		return m.changed
	}
	m.setDeleted(id, true)
	for _, g := range m.occurrences(id) {
		m.derivHit[g]++
		if m.derivHit[g] == 1 {
			ref := m.derivRef[g]
			m.derivAlive[ref]--
			if m.derivAlive[ref] == 0 {
				m.dead[ref] = true
				m.nDead++
				m.changed = append(m.changed, int(ref))
			}
		}
	}
	return m.changed
}

// Undelete reverses a prior Delete and returns the ref IDs of the view
// tuples that came back to life, in ascending order. Tuples never deleted
// are a no-op. The slice is reused by the next Delete or Undelete.
func (m *Maintainer) Undelete(id relation.TID) []int {
	m.changed = m.changed[:0]
	if int(id) >= len(m.deleted) || !m.deleted[id] {
		return m.changed
	}
	m.setDeleted(id, false)
	for _, g := range m.occurrences(id) {
		m.derivHit[g]--
		if m.derivHit[g] == 0 {
			ref := m.derivRef[g]
			m.derivAlive[ref]++
			if m.derivAlive[ref] == 1 {
				m.dead[ref] = false
				m.nDead--
				m.changed = append(m.changed, int(ref))
			}
		}
	}
	return m.changed
}

func (m *Maintainer) setDeleted(id relation.TID, del bool) {
	for int(id) >= len(m.deleted) {
		// A tuple outside every view (inserted after materialization).
		m.deleted = append(m.deleted, false)
	}
	m.deleted[id] = del
	if del {
		m.nDeleted++
	} else {
		m.nDeleted--
	}
}

// Alive reports whether the view tuple with the given ref ID currently
// survives; unknown IDs are not alive.
func (m *Maintainer) Alive(ref int) bool {
	return ref >= 0 && ref < len(m.dead) && !m.dead[ref]
}

// DeadCount returns the number of destroyed view tuples.
func (m *Maintainer) DeadCount() int { return m.nDead }

// DeletedCount returns the number of applied source deletions.
func (m *Maintainer) DeletedCount() int { return m.nDeleted }

// AliveDerivations returns how many derivations of the view tuple still
// survive (0 when the tuple is dead or unknown).
func (m *Maintainer) AliveDerivations(ref int) int {
	if ref < 0 || ref >= len(m.derivAlive) {
		return 0
	}
	return int(m.derivAlive[ref])
}
