package relation

// IDSet is a set of tuple IDs stored as a bitset; the zero value is empty
// and Add grows it as needed.
type IDSet []uint64

// NewIDSet returns an empty set with room for IDs below n.
func NewIDSet(n int) IDSet { return make(IDSet, (n+63)/64) }

// Has reports whether id is in the set.
func (s IDSet) Has(id TID) bool {
	w := int(id >> 6)
	return w < len(s) && s[w]&(1<<(id&63)) != 0
}

// Add inserts id.
func (s *IDSet) Add(id TID) {
	w := int(id >> 6)
	for w >= len(*s) {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (id & 63)
}

// Remove deletes id.
func (s IDSet) Remove(id TID) {
	if w := int(id >> 6); w < len(s) {
		s[w] &^= 1 << (id & 63)
	}
}
