package relation

// Index is a secondary hash index over an arbitrary set of attribute
// positions of a relation, mapping each projection value to the IDs of the
// matching tuples. The conjunctive-query evaluator builds one per (atom,
// bound-position-set) pair to turn joins into point lookups.
type Index struct {
	positions []int
	// slot maps projection encodings to positions in buckets.
	slot    map[string]int
	buckets [][]TID
}

// BuildIndex builds an index on the given positions over the relation's
// current contents. The index is a snapshot: later mutations of the relation
// are not reflected.
func BuildIndex(r *Relation, positions []int) *Index {
	idx := &Index{
		positions: append([]int(nil), positions...),
		slot:      make(map[string]int),
	}
	var buf []byte
	for _, id := range r.order {
		buf = appendEncodeAt(buf[:0], r.Tuple(id), positions)
		i, ok := idx.slot[string(buf)]
		if !ok {
			i = len(idx.buckets)
			idx.slot[string(buf)] = i
			idx.buckets = append(idx.buckets, nil)
		}
		idx.buckets[i] = append(idx.buckets[i], id)
	}
	return idx
}

// Lookup returns the IDs of all tuples whose projection on the index
// positions equals key. The returned slice is shared and must not be
// mutated.
func (idx *Index) Lookup(key Tuple) []TID {
	var buf [128]byte
	i, ok := idx.slot[string(key.AppendEncode(buf[:0]))]
	if !ok {
		return nil
	}
	return idx.buckets[i]
}

// Positions returns the indexed attribute positions.
func (idx *Index) Positions() []int {
	return append([]int(nil), idx.positions...)
}

// Buckets returns the number of distinct keys in the index.
func (idx *Index) Buckets() int { return len(idx.buckets) }
