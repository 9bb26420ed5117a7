// Package relation implements the in-memory relational substrate used by the
// deletion-propagation library: schemas with per-relation keys, relation
// instances with key-constraint enforcement, tuple identity, and secondary
// indexes used by the conjunctive-query evaluator.
//
// The model follows Section II.A of Cai, Miao, Li, "Deletion Propagation for
// Multiple Key Preserving Conjunctive Queries" (ICDE 2019): an instance is a
// finite set of facts T(t) over string constants, and every relation carries
// a key, i.e. a set of attribute positions on which no two tuples agree.
package relation

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Value is a database constant. The paper draws constants from an abstract
// set Const; we use strings, which subsume the integer identifiers used in
// the synthetic workloads.
type Value string

// Tuple is an ordered list of constants; its arity is the arity of the
// relation it belongs to.
type Tuple []Value

// Clone returns a deep copy of t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether t and u have the same arity and the same constants
// in every position.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// String renders the tuple as (a,b,c).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = string(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Encode produces a canonical string encoding of the tuple, injective for
// tuples of the same arity, usable as a map key. Values are length-prefixed
// so that no two distinct tuples collide.
func (t Tuple) Encode() string {
	n := 0
	for _, v := range t {
		n += len(v) + 4
	}
	return string(t.AppendEncode(make([]byte, 0, n)))
}

// AppendEncode appends Encode's bytes to b and returns the extended slice.
// A map lookup keyed by string(t.AppendEncode(buf[:0])) does not allocate.
func (t Tuple) AppendEncode(b []byte) []byte {
	for _, v := range t {
		b = appendValue(b, v)
	}
	return b
}

func appendValue(b []byte, v Value) []byte {
	b = strconv.AppendInt(b, int64(len(v)), 10)
	b = append(b, ':')
	b = append(b, v...)
	return append(b, ';')
}

// Project returns the sub-tuple at the given positions. It panics if a
// position is out of range, which indicates a schema bug rather than a data
// error.
func (t Tuple) Project(positions []int) Tuple {
	out := make(Tuple, len(positions))
	for i, p := range positions {
		out[i] = t[p]
	}
	return out
}

// TupleID identifies a base tuple inside an instance: the relation it lives
// in plus its full value. Because full tuples are set-unique within a
// relation, this is a sound identity.
type TupleID struct {
	Relation string
	Tuple    Tuple
}

// Key returns a canonical string for the identity. Its byte order is the
// canonical tuple order solvers break ties by.
func (id TupleID) Key() string {
	return string(id.AppendKey(nil))
}

// AppendKey appends Key's bytes to b.
func (id TupleID) AppendKey(b []byte) []byte {
	b = append(b, id.Relation...)
	b = append(b, '|')
	return id.Tuple.AppendEncode(b)
}

// String renders the identity as Relation(a,b,c).
func (id TupleID) String() string {
	return id.Relation + id.Tuple.String()
}

// Schema describes one relation symbol: a name, attribute names, and the key
// attribute positions. Every relation in the paper's setting carries a key
// (Section II.B, "key preserving").
type Schema struct {
	Name  string
	Attrs []string
	// Key lists the attribute positions forming the (primary) key. It must
	// be non-empty and strictly increasing.
	Key []int
}

// NewSchema builds a relation schema. Attribute names must be unique and the
// key positions valid; otherwise an error is returned.
func NewSchema(name string, attrs []string, key []int) (*Schema, error) {
	if name == "" {
		return nil, errors.New("relation: empty relation name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation %s: zero arity", name)
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation %s: empty attribute name", name)
		}
		if seen[a] {
			return nil, fmt.Errorf("relation %s: duplicate attribute %q", name, a)
		}
		seen[a] = true
	}
	if len(key) == 0 {
		return nil, fmt.Errorf("relation %s: empty key", name)
	}
	prev := -1
	for _, p := range key {
		if p <= prev {
			return nil, fmt.Errorf("relation %s: key positions must be strictly increasing, got %v", name, key)
		}
		if p < 0 || p >= len(attrs) {
			return nil, fmt.Errorf("relation %s: key position %d out of range [0,%d)", name, p, len(attrs))
		}
		prev = p
	}
	return &Schema{Name: name, Attrs: append([]string(nil), attrs...), Key: append([]int(nil), key...)}, nil
}

// MustSchema is NewSchema that panics on error; for tests and static
// workload definitions.
func MustSchema(name string, attrs []string, key []int) *Schema {
	s, err := NewSchema(name, attrs, key)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Attrs) }

// IsKeyPos reports whether attribute position p belongs to the key.
func (s *Schema) IsKeyPos(p int) bool {
	for _, k := range s.Key {
		if k == p {
			return true
		}
	}
	return false
}

// KeyOf projects the key positions out of a full tuple.
func (s *Schema) KeyOf(t Tuple) Tuple { return t.Project(s.Key) }

// String renders the schema as Name(a, b*, c) with key attributes starred.
func (s *Schema) String() string {
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		if s.IsKeyPos(i) {
			parts[i] = a + "*"
		} else {
			parts[i] = a
		}
	}
	return s.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Errors returned by Relation and Instance mutation methods.
var (
	// ErrArity is returned when a tuple's length does not match the schema.
	ErrArity = errors.New("relation: tuple arity mismatch")
	// ErrKeyViolation is returned on insert of a tuple whose key values
	// collide with a different existing tuple.
	ErrKeyViolation = errors.New("relation: key constraint violation")
	// ErrNoSuchRelation is returned when an operation names an unknown
	// relation.
	ErrNoSuchRelation = errors.New("relation: no such relation")
	// ErrDuplicate is returned on insert of a tuple already present.
	ErrDuplicate = errors.New("relation: duplicate tuple")
)

// TID is the dense identifier of a base tuple inside an Instance. Insert
// assigns the next ID when it accepts a tuple; the ID is stable for the
// life of the instance, kept by Clone and Without, and never reused, not
// even after Delete. IDs stay inside the process: the API, the text
// formats and JSON name tuples by value (TupleID).
type TID uint32

// arena maps IDs to tuple identities for every relation of an instance.
// Entries are append-only, so a clone may share the backing array of a
// capacity-capped prefix.
type arena struct {
	ids []TupleID
}

func (a *arena) add(rel string, t Tuple) TID {
	id := TID(len(a.ids))
	a.ids = append(a.ids, TupleID{Relation: rel, Tuple: t})
	return id
}

// fork returns an arena sharing a's entries; appends on either side
// reallocate instead of overwriting the other's.
func (a *arena) fork() *arena {
	n := len(a.ids)
	return &arena{ids: a.ids[:n:n]}
}

// Relation is a finite set of tuples over a schema, with the key constraint
// enforced on insert. It maintains a key index for point lookups.
type Relation struct {
	schema *Schema
	arena  *arena
	// byValue and byKey find IDs from hashes of the full tuple and of
	// its key values.
	byValue, byKey idTable
	// order lists the live IDs in insertion order so iteration is stable.
	order []TID
}

// NewRelation creates an empty relation over the schema.
func NewRelation(schema *Schema) *Relation {
	return newRelation(schema, &arena{})
}

func newRelation(schema *Schema, a *arena) *Relation {
	return &Relation{schema: schema, arena: a}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.order) }

// appendEncodeAt appends the encoding of t's projection on positions
// (t.Project(positions).Encode()) without building the projection.
func appendEncodeAt(b []byte, t Tuple, positions []int) []byte {
	for _, p := range positions {
		b = appendValue(b, t[p])
	}
	return b
}

var hashSeed = maphash.MakeSeed()

// valueHash and keyHash hash a tuple's encoding and its key's.
func (r *Relation) valueHash(t Tuple) uint64 {
	var buf [128]byte
	return maphash.Bytes(hashSeed, t.AppendEncode(buf[:0]))
}

func (r *Relation) keyHash(t Tuple) uint64 {
	var buf [128]byte
	return maphash.Bytes(hashSeed, appendEncodeAt(buf[:0], t, r.schema.Key))
}

// lookup returns the ID of the exact tuple and its byValue slot.
func (r *Relation) lookup(t Tuple) (TID, int, bool) {
	return r.byValue.find(r.valueHash(t), func(id TID) bool { return r.Tuple(id).Equal(t) })
}

// lookupKey returns the ID of the tuple with key hash h whose i-th key
// value is key(i), and its byKey slot.
func (r *Relation) lookupKey(h uint64, key func(i int) Value) (TID, int, bool) {
	return r.byKey.find(h, func(id TID) bool {
		u := r.Tuple(id)
		for i, p := range r.schema.Key {
			if u[p] != key(i) {
				return false
			}
		}
		return true
	})
}

// Insert adds a tuple. It returns ErrArity on arity mismatch,
// ErrDuplicate if the exact tuple is already present, and ErrKeyViolation
// if a different tuple with the same key values exists.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("%w: relation %s expects arity %d, got %d", ErrArity, r.schema.Name, r.schema.Arity(), len(t))
	}
	if _, _, ok := r.lookup(t); ok {
		return fmt.Errorf("%w: %s%s", ErrDuplicate, r.schema.Name, t)
	}
	if other, _, ok := r.lookupKey(r.keyHash(t), func(i int) Value { return t[r.schema.Key[i]] }); ok {
		return fmt.Errorf("%w: %s%s collides on key with %s%s", ErrKeyViolation, r.schema.Name, t, r.schema.Name, r.Tuple(other))
	}
	id := r.arena.add(r.schema.Name, t.Clone())
	r.byValue.add(r.valueHash(t), id, func(id TID) uint64 { return r.valueHash(r.Tuple(id)) })
	r.byKey.add(r.keyHash(t), id, func(id TID) uint64 { return r.keyHash(r.Tuple(id)) })
	r.order = append(r.order, id)
	return nil
}

// Contains reports whether the exact tuple is present.
func (r *Relation) Contains(t Tuple) bool {
	_, _, ok := r.lookup(t)
	return ok
}

// LookupKey returns the unique tuple with the given key values, if any.
func (r *Relation) LookupKey(key Tuple) (Tuple, bool) {
	if len(key) != len(r.schema.Key) {
		return nil, false
	}
	var buf [128]byte
	h := maphash.Bytes(hashSeed, key.AppendEncode(buf[:0]))
	id, _, ok := r.lookupKey(h, func(i int) Value { return key[i] })
	if !ok {
		return nil, false
	}
	return r.Tuple(id), true
}

// Delete removes the exact tuple, reporting whether it was present. Its ID
// is retired, not reused.
func (r *Relation) Delete(t Tuple) bool {
	id, slot, ok := r.lookup(t)
	if !ok {
		return false
	}
	r.byValue.remove(slot)
	_, kslot, _ := r.lookupKey(r.keyHash(t), func(i int) Value { return t[r.schema.Key[i]] })
	r.byKey.remove(kslot)
	for i, o := range r.order {
		if o == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return true
}

// Tuple returns the tuple with the given ID. The tuple is shared and must
// not be mutated.
func (r *Relation) Tuple(id TID) Tuple { return r.arena.ids[id].Tuple }

// IDs returns the IDs of the live tuples in insertion order. The slice is
// shared and must not be mutated.
func (r *Relation) IDs() []TID { return r.order[:len(r.order):len(r.order)] }

// Tuples returns all tuples in insertion order. The returned slice is fresh;
// the tuples are shared and must not be mutated.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, len(r.order))
	for i, id := range r.order {
		out[i] = r.Tuple(id)
	}
	return out
}

// Clone returns a copy of the relation with the same tuple IDs.
func (r *Relation) Clone() *Relation {
	return r.cloneInto(r.arena.fork())
}

func (r *Relation) cloneInto(a *arena) *Relation {
	return &Relation{
		schema:  r.schema,
		arena:   a,
		byValue: r.byValue.clone(),
		byKey:   r.byKey.clone(),
		order:   append([]TID(nil), r.order...),
	}
}

// idTable is an open-addressing hash set of tuple IDs (or, in an Index,
// key numbers). A slot holds 0 when free, 1 when its entry was removed,
// and otherwise the ID plus 2; the table is a power of two at least twice
// its used slots.
type idTable struct {
	slots []uint32
	used  int // slots not free
}

// find probes for an ID hashed to h that same accepts, returning it and
// its slot.
func (t *idTable) find(h uint64, same func(TID) bool) (TID, int, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; len(t.slots) > 0 && t.slots[i] != 0; i = (i + 1) & mask {
		if s := t.slots[i]; s > 1 && same(TID(s-2)) {
			return TID(s - 2), int(i), true
		}
	}
	return 0, -1, false
}

// add files id under h, growing the table (rehashing with hash) first
// when it would pass half full.
func (t *idTable) add(h uint64, id TID, hash func(TID) uint64) {
	if 2*(t.used+1) > len(t.slots) {
		old := t.slots
		t.slots, t.used = make([]uint32, max(8, 2*len(old))), 0
		for _, s := range old {
			if s > 1 {
				t.place(hash(TID(s-2)), TID(s-2))
			}
		}
	}
	t.place(h, id)
}

func (t *idTable) place(h uint64, id TID) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] > 1 {
		i = (i + 1) & mask
	}
	if t.slots[i] == 0 {
		t.used++
	}
	t.slots[i] = uint32(id) + 2
}

func (t *idTable) remove(slot int) { t.slots[slot] = 1 }

func (t idTable) clone() idTable { return idTable{slots: slices.Clone(t.slots), used: t.used} }

// Instance is a database instance: a collection of relations, one per
// relation symbol of the schema. Its relations share one ID space (TID).
type Instance struct {
	rels  map[string]*Relation
	names []string
	arena *arena
}

// NewInstance creates an instance with the given relation schemas.
func NewInstance(schemas ...*Schema) *Instance {
	db := &Instance{rels: make(map[string]*Relation), arena: &arena{}}
	for _, s := range schemas {
		db.AddRelation(s)
	}
	return db
}

// AddRelation registers a new empty relation; replacing an existing one is
// not allowed and panics, since schemas are static in this library.
func (db *Instance) AddRelation(s *Schema) *Relation {
	if _, ok := db.rels[s.Name]; ok {
		panic("relation: duplicate relation " + s.Name)
	}
	r := newRelation(s, db.arena)
	db.rels[s.Name] = r
	db.names = append(db.names, s.Name)
	return r
}

// Relation returns the named relation, or nil if absent.
func (db *Instance) Relation(name string) *Relation { return db.rels[name] }

// HasRelation reports whether the instance has a relation with this name.
func (db *Instance) HasRelation(name string) bool {
	_, ok := db.rels[name]
	return ok
}

// RelationNames returns relation names in registration order.
func (db *Instance) RelationNames() []string {
	return append([]string(nil), db.names...)
}

// Insert adds a tuple to the named relation.
func (db *Instance) Insert(rel string, t Tuple) error {
	r, ok := db.rels[rel]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchRelation, rel)
	}
	return r.Insert(t)
}

// MustInsert inserts and panics on error; for tests and static workloads.
func (db *Instance) MustInsert(rel string, vals ...string) {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Value(v)
	}
	if err := db.Insert(rel, t); err != nil {
		panic(err)
	}
}

// Delete removes a tuple from the named relation, reporting whether it was
// present. Deleting from an unknown relation returns false.
func (db *Instance) Delete(id TupleID) bool {
	r, ok := db.rels[id.Relation]
	if !ok {
		return false
	}
	return r.Delete(id.Tuple)
}

// Contains reports whether the identified tuple is present.
func (db *Instance) Contains(id TupleID) bool {
	_, ok := db.ID(id)
	return ok
}

// ID returns the dense ID of a present tuple.
func (db *Instance) ID(id TupleID) (TID, bool) {
	r, ok := db.rels[id.Relation]
	if !ok {
		return 0, false
	}
	id2, _, ok := r.lookup(id.Tuple)
	return id2, ok
}

// ByID returns the identity of the tuple with the given ID. Retired IDs
// still resolve; IDs never assigned by this instance panic.
func (db *Instance) ByID(id TID) TupleID { return db.arena.ids[id] }

// NumIDs returns the number of IDs assigned so far: every ID is below it,
// so it sizes slices indexed by TID.
func (db *Instance) NumIDs() int { return len(db.arena.ids) }

// Size returns the total number of tuples across all relations (|D|).
func (db *Instance) Size() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// AllTuples returns the identities of every tuple in the instance, relations
// in registration order, tuples in insertion order.
func (db *Instance) AllTuples() []TupleID {
	out := make([]TupleID, 0, db.Size())
	for _, name := range db.names {
		for _, id := range db.rels[name].order {
			out = append(out, db.ByID(id))
		}
	}
	return out
}

// Clone returns a copy of the instance with the same tuple IDs.
func (db *Instance) Clone() *Instance {
	a := db.arena.fork()
	c := &Instance{rels: make(map[string]*Relation, len(db.rels)), names: append([]string(nil), db.names...), arena: a}
	for name, r := range db.rels {
		c.rels[name] = r.cloneInto(a)
	}
	return c
}

// Without returns a copy of the instance with the given tuples removed
// (D \ ΔD). Unknown tuples are ignored. Surviving tuples keep their IDs.
func (db *Instance) Without(deleted []TupleID) *Instance {
	c := db.Clone()
	for _, id := range deleted {
		c.Delete(id)
	}
	return c
}

// String renders the instance relation by relation, tuples sorted, for
// debugging and golden tests.
func (db *Instance) String() string {
	var b strings.Builder
	for _, name := range db.names {
		r := db.rels[name]
		fmt.Fprintf(&b, "%s:\n", r.schema)
		lines := make([]string, 0, r.Len())
		for _, t := range r.Tuples() {
			lines = append(lines, "  "+t.String())
		}
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
