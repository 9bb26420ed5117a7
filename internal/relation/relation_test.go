package relation

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func tup(vals ...string) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Value(v)
	}
	return t
}

func TestNewSchemaValidation(t *testing.T) {
	cases := []struct {
		name  string
		rel   string
		attrs []string
		key   []int
		ok    bool
	}{
		{"valid", "T", []string{"a", "b"}, []int{0}, true},
		{"valid multi-key", "T", []string{"a", "b", "c"}, []int{0, 2}, true},
		{"empty name", "", []string{"a"}, []int{0}, false},
		{"zero arity", "T", nil, []int{0}, false},
		{"dup attr", "T", []string{"a", "a"}, []int{0}, false},
		{"empty attr", "T", []string{""}, []int{0}, false},
		{"empty key", "T", []string{"a"}, nil, false},
		{"key out of range", "T", []string{"a"}, []int{1}, false},
		{"key negative", "T", []string{"a"}, []int{-1}, false},
		{"key not increasing", "T", []string{"a", "b"}, []int{1, 0}, false},
		{"key duplicate", "T", []string{"a", "b"}, []int{0, 0}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewSchema(c.rel, c.attrs, c.key)
			if (err == nil) != c.ok {
				t.Fatalf("NewSchema(%q,%v,%v) err=%v, want ok=%v", c.rel, c.attrs, c.key, err, c.ok)
			}
		})
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema with bad key did not panic")
		}
	}()
	MustSchema("T", []string{"a"}, nil)
}

func TestSchemaAccessors(t *testing.T) {
	s := MustSchema("T", []string{"a", "b", "c"}, []int{0, 2})
	if s.Arity() != 3 {
		t.Errorf("Arity = %d, want 3", s.Arity())
	}
	if !s.IsKeyPos(0) || s.IsKeyPos(1) || !s.IsKeyPos(2) {
		t.Errorf("IsKeyPos wrong: %v %v %v", s.IsKeyPos(0), s.IsKeyPos(1), s.IsKeyPos(2))
	}
	if got := s.KeyOf(tup("x", "y", "z")); !got.Equal(tup("x", "z")) {
		t.Errorf("KeyOf = %v, want (x,z)", got)
	}
	if got := s.String(); got != "T(a*, b, c*)" {
		t.Errorf("String = %q", got)
	}
}

func TestTupleBasics(t *testing.T) {
	a := tup("x", "y")
	b := a.Clone()
	b[0] = "z"
	if a[0] != "x" {
		t.Error("Clone did not copy")
	}
	if !a.Equal(tup("x", "y")) {
		t.Error("Equal false negative")
	}
	if a.Equal(tup("x")) || a.Equal(tup("x", "z")) {
		t.Error("Equal false positive")
	}
	if a.String() != "(x,y)" {
		t.Errorf("String = %q", a.String())
	}
	if got := tup("a", "b", "c").Project([]int{2, 0}); !got.Equal(tup("c", "a")) {
		t.Errorf("Project = %v", got)
	}
}

// TestTupleEncodeInjective is the critical property: distinct tuples must
// get distinct encodings, including tuples whose naive concatenations
// collide ("ab","c" vs "a","bc").
func TestTupleEncodeInjective(t *testing.T) {
	pairs := [][2]Tuple{
		{tup("ab", "c"), tup("a", "bc")},
		{tup("a;b"), tup("a", "b")},
		{tup("1:a"), tup("a")},
		{tup(""), tup()},
		{tup("a", ""), tup("a")},
	}
	for _, p := range pairs {
		if p[0].Encode() == p[1].Encode() {
			t.Errorf("Encode collision: %v vs %v -> %q", p[0], p[1], p[0].Encode())
		}
	}
}

func TestTupleEncodeInjectiveQuick(t *testing.T) {
	f := func(a, b []string) bool {
		ta := make(Tuple, len(a))
		for i, v := range a {
			ta[i] = Value(v)
		}
		tb := make(Tuple, len(b))
		for i, v := range b {
			tb[i] = Value(v)
		}
		if ta.Equal(tb) {
			return ta.Encode() == tb.Encode()
		}
		return ta.Encode() != tb.Encode()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelationInsertAndConstraints(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a", "b"}, []int{0}))
	if err := r.Insert(tup("k1", "v1")); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(tup("k2", "v2")); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(tup("k1", "v1")); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate insert err = %v, want ErrDuplicate", err)
	}
	if err := r.Insert(tup("k1", "other")); !errors.Is(err, ErrKeyViolation) {
		t.Errorf("key clash insert err = %v, want ErrKeyViolation", err)
	}
	if err := r.Insert(tup("too", "many", "cols")); !errors.Is(err, ErrArity) {
		t.Errorf("arity err = %v, want ErrArity", err)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	if !r.Contains(tup("k1", "v1")) || r.Contains(tup("k1", "other")) {
		t.Error("Contains wrong")
	}
	got, ok := r.LookupKey(tup("k2"))
	if !ok || !got.Equal(tup("k2", "v2")) {
		t.Errorf("LookupKey = %v,%v", got, ok)
	}
	if _, ok := r.LookupKey(tup("zzz")); ok {
		t.Error("LookupKey false positive")
	}
}

func TestRelationInsertIsolatesCaller(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a"}, []int{0}))
	src := tup("x")
	if err := r.Insert(src); err != nil {
		t.Fatal(err)
	}
	src[0] = "mutated"
	if !r.Contains(tup("x")) {
		t.Error("relation shares storage with caller tuple")
	}
}

func TestRelationDelete(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a", "b"}, []int{0}))
	r.Insert(tup("k1", "v1"))
	if !r.Delete(tup("k1", "v1")) {
		t.Fatal("Delete existing = false")
	}
	if r.Delete(tup("k1", "v1")) {
		t.Fatal("Delete absent = true")
	}
	if r.Len() != 0 {
		t.Errorf("Len after delete = %d", r.Len())
	}
	// Key slot must be freed: reinsert with same key, different value.
	if err := r.Insert(tup("k1", "v9")); err != nil {
		t.Errorf("reinsert after delete failed: %v", err)
	}
}

// TestReinsertAfterDelete guards against stale iteration-order entries: a
// tuple deleted and re-inserted must appear exactly once.
func TestReinsertAfterDelete(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a"}, []int{0}))
	if err := r.Insert(tup("x")); err != nil {
		t.Fatal(err)
	}
	if !r.Delete(tup("x")) {
		t.Fatal("delete failed")
	}
	if err := r.Insert(tup("x")); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Tuples()); got != 1 {
		t.Fatalf("Tuples() returned %d entries, want 1", got)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestRelationTuplesOrderStable(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a"}, []int{0}))
	for _, v := range []string{"c", "a", "b"} {
		r.Insert(tup(v))
	}
	got := r.Tuples()
	want := []string{"c", "a", "b"}
	for i, w := range want {
		if string(got[i][0]) != w {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	r.Delete(tup("a"))
	got = r.Tuples()
	if len(got) != 2 || string(got[0][0]) != "c" || string(got[1][0]) != "b" {
		t.Fatalf("order after delete %v", got)
	}
}

func TestRelationClone(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a"}, []int{0}))
	r.Insert(tup("x"))
	c := r.Clone()
	c.Delete(tup("x"))
	if !r.Contains(tup("x")) {
		t.Error("Clone shares storage")
	}
}

func TestInstanceBasics(t *testing.T) {
	db := NewInstance(
		MustSchema("T1", []string{"a", "b"}, []int{0}),
		MustSchema("T2", []string{"c"}, []int{0}),
	)
	db.MustInsert("T1", "x", "y")
	db.MustInsert("T2", "z")
	if db.Size() != 2 {
		t.Errorf("Size = %d", db.Size())
	}
	if !db.HasRelation("T1") || db.HasRelation("T9") {
		t.Error("HasRelation wrong")
	}
	if err := db.Insert("T9", tup("x")); !errors.Is(err, ErrNoSuchRelation) {
		t.Errorf("insert unknown rel err = %v", err)
	}
	names := db.RelationNames()
	if len(names) != 2 || names[0] != "T1" || names[1] != "T2" {
		t.Errorf("RelationNames = %v", names)
	}
	all := db.AllTuples()
	if len(all) != 2 || all[0].Relation != "T1" || all[1].Relation != "T2" {
		t.Errorf("AllTuples = %v", all)
	}
	id := TupleID{Relation: "T1", Tuple: tup("x", "y")}
	if !db.Contains(id) {
		t.Error("Contains = false")
	}
	if !db.Delete(id) || db.Contains(id) {
		t.Error("Delete failed")
	}
	if db.Delete(TupleID{Relation: "nope", Tuple: tup("x")}) {
		t.Error("Delete unknown relation = true")
	}
}

func TestInstanceAddRelationDuplicatePanics(t *testing.T) {
	db := NewInstance(MustSchema("T", []string{"a"}, []int{0}))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddRelation did not panic")
		}
	}()
	db.AddRelation(MustSchema("T", []string{"b"}, []int{0}))
}

func TestInstanceWithout(t *testing.T) {
	db := NewInstance(MustSchema("T", []string{"a"}, []int{0}))
	db.MustInsert("T", "x")
	db.MustInsert("T", "y")
	rest := db.Without([]TupleID{{Relation: "T", Tuple: tup("x")}})
	if db.Size() != 2 {
		t.Error("Without mutated the original")
	}
	if rest.Size() != 1 || !rest.Contains(TupleID{Relation: "T", Tuple: tup("y")}) {
		t.Errorf("Without result wrong: %v", rest)
	}
}

func TestInstanceString(t *testing.T) {
	db := NewInstance(MustSchema("T", []string{"a", "b"}, []int{0}))
	db.MustInsert("T", "k", "v")
	s := db.String()
	if !strings.Contains(s, "T(a*, b)") || !strings.Contains(s, "(k,v)") {
		t.Errorf("String = %q", s)
	}
}

func TestTupleIDKeyDistinct(t *testing.T) {
	a := TupleID{Relation: "T", Tuple: tup("x")}
	b := TupleID{Relation: "T2", Tuple: tup("x")}
	if a.Key() == b.Key() {
		t.Error("TupleID.Key collision across relations")
	}
	if a.String() != "T(x)" {
		t.Errorf("String = %q", a.String())
	}
}

func TestIndex(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a", "b", "c"}, []int{0}))
	r.Insert(tup("1", "x", "p"))
	r.Insert(tup("2", "x", "q"))
	r.Insert(tup("3", "y", "p"))
	idx := BuildIndex(r, []int{1})
	if got := idx.Lookup(tup("x")); len(got) != 2 {
		t.Errorf("Lookup(x) = %v", got)
	}
	if got := idx.Lookup(tup("z")); got != nil {
		t.Errorf("Lookup(z) = %v", got)
	}
	if idx.Buckets() != 2 {
		t.Errorf("Buckets = %d", idx.Buckets())
	}
	if p := idx.Positions(); len(p) != 1 || p[0] != 1 {
		t.Errorf("Positions = %v", p)
	}
	// Multi-position index.
	idx2 := BuildIndex(r, []int{1, 2})
	if got := idx2.Lookup(tup("x", "q")); len(got) != 1 || !r.Tuple(got[0]).Equal(tup("2", "x", "q")) {
		t.Errorf("Lookup(x,q) = %v", got)
	}
	// Snapshot semantics.
	r.Insert(tup("4", "x", "r"))
	if got := idx.Lookup(tup("x")); len(got) != 2 {
		t.Errorf("index not a snapshot: %v", got)
	}
}

// Property: insert then delete leaves the relation exactly as before, for
// any batch of distinct-keyed tuples.
func TestInsertDeleteRoundTripQuick(t *testing.T) {
	f := func(keys []uint8) bool {
		r := NewRelation(MustSchema("T", []string{"a", "b"}, []int{0}))
		inserted := make(map[uint8]bool)
		for _, k := range keys {
			if inserted[k] {
				continue
			}
			inserted[k] = true
			if err := r.Insert(tup(string(rune('A'+int(k%26))), "v")); err != nil {
				// Key collisions possible since k%26 folds; treat as skip.
				inserted[k] = false
				continue
			}
		}
		n := r.Len()
		for _, tpl := range r.Tuples() {
			if !r.Delete(tpl) {
				return false
			}
		}
		return r.Len() == 0 && n <= 26
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodeFormat pins the byte layout of Encode, which the canonical
// tuple order is defined over.
func TestEncodeFormat(t *testing.T) {
	cases := []struct {
		t    Tuple
		want string
	}{
		{Tuple{}, ""},
		{Tuple{""}, "0:;"},
		{Tuple{"a", "bc"}, "1:a;2:bc;"},
		{Tuple{"0123456789ab", "x;y"}, "12:0123456789ab;3:x;y;"},
	}
	for _, c := range cases {
		if got := c.t.Encode(); got != c.want {
			t.Errorf("Encode(%v) = %q, want %q", c.t, got, c.want)
		}
		if got := string(c.t.AppendEncode([]byte("p|"))); got != "p|"+c.want {
			t.Errorf("AppendEncode(%v) = %q", c.t, got)
		}
	}
}

// TestTupleIDsStable: IDs are dense in insertion order, survive Clone and
// Without, and are never reused after a delete.
func TestTupleIDsStable(t *testing.T) {
	db := NewInstance(MustSchema("T", []string{"a", "b"}, []int{0}), MustSchema("U", []string{"a"}, []int{0}))
	db.MustInsert("T", "1", "x")
	db.MustInsert("U", "u")
	db.MustInsert("T", "2", "y")
	ids := db.AllTuples()
	for _, id := range ids {
		tid, ok := db.ID(id)
		if !ok || !db.ByID(tid).Tuple.Equal(id.Tuple) || db.ByID(tid).Relation != id.Relation {
			t.Fatalf("ID(%s) = %d, %v", id, tid, ok)
		}
	}
	if tid, _ := db.ID(TupleID{Relation: "T", Tuple: tup("2", "y")}); tid != 2 {
		t.Errorf("third insert got ID %d, want 2", tid)
	}
	c := db.Without([]TupleID{{Relation: "T", Tuple: tup("1", "x")}})
	if tid, ok := c.ID(TupleID{Relation: "U", Tuple: tup("u")}); !ok || tid != 1 {
		t.Errorf("Without changed an ID: %d, %v", tid, ok)
	}
	if c.Contains(TupleID{Relation: "T", Tuple: tup("1", "x")}) || !db.Contains(TupleID{Relation: "T", Tuple: tup("1", "x")}) {
		t.Error("Without must delete from the copy only")
	}
	c.MustInsert("T", "1", "x")
	db.MustInsert("T", "3", "z")
	if tid, _ := c.ID(TupleID{Relation: "T", Tuple: tup("1", "x")}); tid != 3 {
		t.Errorf("re-insert reused or skipped an ID: %d", tid)
	}
	if got := db.ByID(3); got.String() != "T(3,z)" {
		t.Errorf("clone insert leaked into the original: %s", got)
	}
	if c.NumIDs() != 4 || db.NumIDs() != 4 {
		t.Errorf("NumIDs = %d, %d", c.NumIDs(), db.NumIDs())
	}
	var s IDSet
	s.Add(70)
	if !s.Has(70) || s.Has(6) || NewIDSet(10).Has(70) {
		t.Error("IDSet membership")
	}
	s.Remove(70)
	if s.Has(70) {
		t.Error("IDSet remove")
	}
}
