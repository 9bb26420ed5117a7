package relation

import (
	"hash/maphash"
	"slices"
)

// Index is a secondary hash index over an arbitrary set of attribute
// positions of a relation, mapping each projection value to the IDs of the
// matching tuples. The conjunctive-query evaluator builds one per (atom,
// bound-position-set) pair to turn joins into point lookups.
type Index struct {
	rel       *Relation
	positions []int
	// ids lists the tuple IDs grouped by key, keys in first-seen order
	// and tuples in insertion order: key k's are ids[starts[k]:starts[k+1]].
	ids    []TID
	starts []int32
	// keys holds the key numbers, hashed by the encoding of the key.
	keys idTable
}

// BuildIndex builds an index on the given positions over the relation's
// current contents. The index is a snapshot: later mutations of the relation
// are not reflected.
func BuildIndex(r *Relation, positions []int) *Index {
	n := len(r.order)
	size := 8
	for size < 2*n {
		size *= 2
	}
	idx := &Index{rel: r, positions: slices.Clone(positions), keys: idTable{slots: make([]uint32, size)}}
	// Number the keys in first-seen order, counting their tuples; the
	// table never grows past half full, so it needs no rehash.
	keyOf := make([]int32, n)
	var firsts []TID
	var count []int32
	var buf [128]byte
	for i, id := range r.order {
		t := r.Tuple(id)
		h := maphash.Bytes(hashSeed, appendEncodeAt(buf[:0], t, positions))
		k, _, ok := idx.keys.find(h, func(k TID) bool { return sameAt(r.Tuple(firsts[k]), t, positions) })
		if !ok {
			k = TID(len(firsts))
			firsts = append(firsts, id)
			count = append(count, 0)
			idx.keys.add(h, k, nil)
		}
		keyOf[i] = int32(k)
		count[k]++
	}
	idx.starts = make([]int32, len(firsts)+1)
	for k, c := range count {
		idx.starts[k+1] = idx.starts[k] + c
	}
	// count becomes each key's next free place in ids.
	copy(count, idx.starts)
	idx.ids = make([]TID, n)
	for i, id := range r.order {
		idx.ids[count[keyOf[i]]] = id
		count[keyOf[i]]++
	}
	return idx
}

// sameAt reports whether t and u agree on the given positions.
func sameAt(t, u Tuple, positions []int) bool {
	for _, p := range positions {
		if t[p] != u[p] {
			return false
		}
	}
	return true
}

// Lookup returns the IDs of all tuples whose projection on the index
// positions equals key. The returned slice is shared and must not be
// mutated; its capacity is capped.
func (idx *Index) Lookup(key Tuple) []TID {
	if len(key) != len(idx.positions) {
		return nil
	}
	var buf [128]byte
	h := maphash.Bytes(hashSeed, key.AppendEncode(buf[:0]))
	k, _, ok := idx.keys.find(h, func(k TID) bool {
		t := idx.rel.Tuple(idx.ids[idx.starts[k]])
		for i, p := range idx.positions {
			if t[p] != key[i] {
				return false
			}
		}
		return true
	})
	if !ok {
		return nil
	}
	lo, hi := idx.starts[k], idx.starts[k+1]
	return idx.ids[lo:hi:hi]
}

// Positions returns the indexed attribute positions.
func (idx *Index) Positions() []int {
	return append([]int(nil), idx.positions...)
}

// Buckets returns the number of distinct keys in the index.
func (idx *Index) Buckets() int { return len(idx.starts) - 1 }
