package cq

import (
	"errors"
	"strings"
	"testing"

	"delprop/internal/relation"
)

// paperSchemas are the Fig.1 relations: T1(AuName,Journal) with key
// {AuName,Journal}, T2(Journal,Topic,Papers) with key {Journal,Topic}.
func paperSchemas() SchemaMap {
	return SchemaMap{
		"T1": relation.MustSchema("T1", []string{"AuName", "Journal"}, []int{0, 1}),
		"T2": relation.MustSchema("T2", []string{"Journal", "Topic", "Papers"}, []int{0, 1}),
	}
}

func TestParseBasic(t *testing.T) {
	q, err := Parse("Q3(x, z) :- T1(x, y), T2(y, z, w).")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "Q3" {
		t.Errorf("Name = %q", q.Name)
	}
	if q.Arity() != 2 {
		t.Errorf("Arity = %d", q.Arity())
	}
	if len(q.Body) != 2 || q.Body[0].Relation != "T1" || q.Body[1].Relation != "T2" {
		t.Errorf("Body = %v", q.Body)
	}
	if got := q.String(); got != "Q3(x,z) :- T1(x,y), T2(y,z,w)" {
		t.Errorf("String = %q", got)
	}
}

func TestParseConstants(t *testing.T) {
	q := MustParse("Q(x) :- T(x, 'tkde', 30)")
	terms := q.Body[0].Terms
	if terms[0].String() != "x" || !terms[0].IsVar() {
		t.Errorf("term 0 = %v", terms[0])
	}
	if terms[1].IsVar() || terms[1].Const != "tkde" {
		t.Errorf("term 1 = %v", terms[1])
	}
	if terms[2].IsVar() || terms[2].Const != "30" {
		t.Errorf("term 2 = %v", terms[2])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Q",
		"Q(x)",
		"Q(x) : T(x)",
		"Q(x) :- ",
		"Q(x) :- T(x", // unterminated
		"Q(x) :- T(x) garbage",
		"Q(x :- T(x)",
		"Q(x) :- T('unterminated)",
		"Q(x,) :- T(x)",
	}
	for _, src := range bad {
		if _, err := Parse(src); !errors.Is(err, ErrParse) {
			t.Errorf("Parse(%q) err = %v, want ErrParse", src, err)
		}
	}
}

func TestParseProgram(t *testing.T) {
	qs, err := ParseProgram(`
% comment
Q1(x) :- T(x, y)
# another comment

Q2(y) :- T(x, y)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[0].Name != "Q1" || qs[1].Name != "Q2" {
		t.Errorf("ParseProgram = %v", qs)
	}
	if _, err := ParseProgram("Q1(x) :- T(x)\nbroken"); err == nil {
		t.Error("ParseProgram accepted broken line")
	}
}

func TestVarsClassification(t *testing.T) {
	// Paper's Q1: Q1(y1,y2,w) :- T1(x,y1,z), T2(x,y2,w); existential x,z.
	q := MustParse("Q1(y1, y2, w) :- TA(x, y1, z), TB(x, y2, w)")
	if got := q.HeadVars(); len(got) != 3 {
		t.Errorf("HeadVars = %v", got)
	}
	ex := q.ExistentialVars()
	if len(ex) != 2 || ex[0] != "x" || ex[1] != "z" {
		t.Errorf("ExistentialVars = %v", ex)
	}
	if q.IsProjectFree() {
		t.Error("Q1 reported project-free")
	}
	if !q.IsSelfJoinFree() {
		t.Error("Q1 reported self-join")
	}
	// Paper's Q2: project-free with repeated head var.
	q2 := MustParse("Q2(y, y1, y, y2, y, y3) :- TA(y, y1), TB(y, y2), TC(y, y3)")
	if !q2.IsProjectFree() {
		t.Error("Q2 reported not project-free")
	}
	if q2.Arity() != 6 {
		t.Errorf("Q2 arity = %d, want 6 (paper)", q2.Arity())
	}
	// Self-join.
	q3 := MustParse("Q(x, y) :- T(x, y), T(y, x)")
	if q3.IsSelfJoinFree() {
		t.Error("self-join not detected")
	}
}

func TestIsSelectFree(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"Q(x, y) :- T(x, y)", true},
		{"Q(x) :- T(x, 'c')", false},          // constant
		{"Q(x) :- T(x, x)", false},            // repeated variable in one atom
		{"Q(x, y) :- T(x, y), S(y, x)", true}, // repetition across atoms ok
	}
	for _, c := range cases {
		if got := MustParse(c.src).IsSelectFree(); got != c.want {
			t.Errorf("IsSelectFree(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestKeyPreserving(t *testing.T) {
	schemas := paperSchemas()
	// Q3 projects away the join variable y which is a key variable of both
	// atoms => not key-preserving.
	q3 := MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")
	kp, err := q3.IsKeyPreserving(schemas)
	if err != nil {
		t.Fatal(err)
	}
	if kp {
		t.Error("Q3 reported key-preserving")
	}
	// Q4 keeps all key variables in the head (paper Fig 1d).
	q4 := MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")
	kp, err = q4.IsKeyPreserving(schemas)
	if err != nil {
		t.Fatal(err)
	}
	if !kp {
		t.Error("Q4 reported not key-preserving")
	}
	// Project-free queries are always key-preserving.
	qpf := MustParse("Q(x, y, z, w) :- T1(x, y), T2(y, z, w)")
	if pf := qpf.IsProjectFree(); !pf {
		t.Fatal("setup: qpf not project-free")
	}
	kp, err = qpf.IsKeyPreserving(schemas)
	if err != nil {
		t.Fatal(err)
	}
	if !kp {
		t.Error("project-free query reported not key-preserving")
	}
	// Constants at key positions are fine.
	qc := MustParse("Q(y) :- T2('tkde', y, w)")
	kp, err = qc.IsKeyPreserving(schemas)
	if err != nil {
		t.Fatal(err)
	}
	if !kp {
		t.Error("constant key position broke key-preservation")
	}
	// Unknown relation -> error.
	if _, err := MustParse("Q(x) :- Nope(x)").IsKeyPreserving(schemas); err == nil {
		t.Error("unknown relation not reported")
	}
}

func TestKeyVars(t *testing.T) {
	schemas := paperSchemas()
	q := MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")
	kv, err := q.KeyVars(schemas)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"x": true, "y": true, "z": true}
	if len(kv) != 3 {
		t.Fatalf("KeyVars = %v", kv)
	}
	for _, v := range kv {
		if !want[v] {
			t.Errorf("unexpected key var %s", v)
		}
	}
}

func TestValidate(t *testing.T) {
	schemas := paperSchemas()
	cases := []struct {
		src string
		ok  bool
	}{
		{"Q(x, y) :- T1(x, y)", true},
		{"Q(x) :- Nope(x)", false},
		{"Q(x) :- T1(x)", false},         // arity
		{"Q(z) :- T1(x, y)", false},      // unsafe head
		{"Q('c') :- T1(x, y)", false},    // constant in head
		{"Q(x, x, x) :- T1(x, y)", true}, // repeated head var ok
		{"Q(w) :- T2(x, y, w)", true},    // projection ok
	}
	for _, c := range cases {
		q := MustParse(c.src)
		err := q.Validate(schemas)
		if (err == nil) != c.ok {
			t.Errorf("Validate(%q) err = %v, want ok=%v", c.src, err, c.ok)
		}
		if err != nil && !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("Validate(%q) err not wrapped: %v", c.src, err)
		}
	}
	// Empty body / empty head / empty name via direct construction.
	if err := (&Query{Name: "Q", Head: []Term{V("x")}}).Validate(schemas); err == nil {
		t.Error("empty body accepted")
	}
	if err := (&Query{Name: "Q", Body: []Atom{{Relation: "T1", Terms: []Term{V("x"), V("y")}}}}).Validate(schemas); err == nil {
		t.Error("empty head accepted")
	}
	if err := (&Query{Head: []Term{V("x")}, Body: []Atom{{Relation: "T1", Terms: []Term{V("x"), V("y")}}}}).Validate(schemas); err == nil {
		t.Error("empty name accepted")
	}
}

func TestClone(t *testing.T) {
	q := MustParse("Q(x) :- T1(x, y)")
	c := q.Clone()
	c.Body[0].Terms[0] = C("mutated")
	if !q.Body[0].Terms[0].IsVar() {
		t.Error("Clone shares body terms")
	}
}

// fig1DB builds the exact instance of Fig.1.
func fig1DB() *relation.Instance {
	db := relation.NewInstance(
		relation.MustSchema("T1", []string{"AuName", "Journal"}, []int{0, 1}),
		relation.MustSchema("T2", []string{"Journal", "Topic", "Papers"}, []int{0, 1}),
	)
	db.MustInsert("T1", "Joe", "TKDE")
	db.MustInsert("T1", "John", "TKDE")
	db.MustInsert("T1", "Tom", "TKDE")
	db.MustInsert("T1", "John", "TODS")
	db.MustInsert("T2", "TKDE", "XML", "30")
	db.MustInsert("T2", "TKDE", "CUBE", "30")
	db.MustInsert("T2", "TODS", "XML", "30")
	return db
}

func tup(vals ...string) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.Value(v)
	}
	return t
}

func TestEvaluateFig1Q3(t *testing.T) {
	db := fig1DB()
	q3 := MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")
	res := MustEvaluate(q3, db)
	// Fig 1(c): 6 answers.
	want := []relation.Tuple{
		tup("Joe", "CUBE"), tup("Joe", "XML"),
		tup("Tom", "CUBE"), tup("Tom", "XML"),
		tup("John", "CUBE"), tup("John", "XML"),
	}
	if res.NumAnswers() != len(want) {
		t.Fatalf("NumAnswers = %d, want %d: %s", res.NumAnswers(), len(want), res)
	}
	for _, w := range want {
		if !res.Contains(w) {
			t.Errorf("missing answer %v", w)
		}
	}
	// (John, XML) has two derivations: via TKDE and via TODS.
	ans, ok := res.Lookup(tup("John", "XML"))
	if !ok || len(ans.Derivations) != 2 {
		t.Fatalf("John/XML derivations = %v", ans)
	}
	// (Joe, XML) has one.
	ans, _ = res.Lookup(tup("Joe", "XML"))
	if len(ans.Derivations) != 1 {
		t.Errorf("Joe/XML derivations = %d, want 1", len(ans.Derivations))
	}
	d := ans.Derivations[0]
	if len(d) != 2 || db.ByID(d[0]).Relation != "T1" || db.ByID(d[1]).Relation != "T2" {
		t.Errorf("derivation shape wrong: %s", d.Format(db))
	}
	if joe, _ := db.ID(relation.TupleID{Relation: "T1", Tuple: tup("Joe", "TKDE")}); d[0] != joe {
		t.Errorf("derivation misses T1(Joe,TKDE): %s", d.Format(db))
	}
}

func TestEvaluateFig1Q4(t *testing.T) {
	db := fig1DB()
	q4 := MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")
	res := MustEvaluate(q4, db)
	// Fig 1(d): 7 answers, each with exactly one derivation
	// (key-preserving).
	if res.NumAnswers() != 7 {
		t.Fatalf("NumAnswers = %d, want 7: %s", res.NumAnswers(), res)
	}
	for _, a := range res.Answers() {
		if len(a.Derivations) != 1 {
			t.Errorf("answer %v has %d derivations, want 1 (key-preserving)", a.Tuple, len(a.Derivations))
		}
	}
	if !res.Contains(tup("John", "TODS", "XML")) {
		t.Error("missing (John,TODS,XML)")
	}
}

func TestEvaluateConstantsAndSelection(t *testing.T) {
	db := fig1DB()
	q := MustParse("Q(x) :- T1(x, 'TKDE')")
	res := MustEvaluate(q, db)
	if res.NumAnswers() != 3 {
		t.Fatalf("NumAnswers = %d, want 3: %s", res.NumAnswers(), res)
	}
	// Constant with no match.
	q2 := MustParse("Q(x) :- T1(x, 'VLDBJ')")
	if got := MustEvaluate(q2, db).NumAnswers(); got != 0 {
		t.Errorf("NumAnswers = %d, want 0", got)
	}
}

func TestEvaluateSelfJoin(t *testing.T) {
	db := relation.NewInstance(relation.MustSchema("E", []string{"src", "dst"}, []int{0, 1}))
	db.MustInsert("E", "a", "b")
	db.MustInsert("E", "b", "c")
	db.MustInsert("E", "b", "a")
	q := MustParse("Path2(x, y, z) :- E(x, y), E(y, z)")
	res := MustEvaluate(q, db)
	want := []relation.Tuple{
		tup("a", "b", "c"), tup("a", "b", "a"), tup("b", "a", "b"),
	}
	if res.NumAnswers() != len(want) {
		t.Fatalf("NumAnswers = %d, want %d: %s", res.NumAnswers(), len(want), res)
	}
	for _, w := range want {
		if !res.Contains(w) {
			t.Errorf("missing %v", w)
		}
	}
	// Symmetric self-join: Q(x,y) :- E(x,y), E(y,x); answers (a,b),(b,a).
	q2 := MustParse("Q(x, y) :- E(x, y), E(y, x)")
	res2 := MustEvaluate(q2, db)
	if res2.NumAnswers() != 2 {
		t.Errorf("symmetric self-join answers = %d, want 2: %s", res2.NumAnswers(), res2)
	}
}

func TestEvaluateRepeatedVarInAtom(t *testing.T) {
	db := relation.NewInstance(relation.MustSchema("T", []string{"a", "b"}, []int{0, 1}))
	db.MustInsert("T", "x", "x")
	db.MustInsert("T", "x", "y")
	q := MustParse("Q(v) :- T(v, v)")
	res := MustEvaluate(q, db)
	if res.NumAnswers() != 1 || !res.Contains(tup("x")) {
		t.Errorf("repeated-var eval wrong: %s", res)
	}
}

func TestEvaluateCrossProduct(t *testing.T) {
	db := relation.NewInstance(
		relation.MustSchema("A", []string{"a"}, []int{0}),
		relation.MustSchema("B", []string{"b"}, []int{0}),
	)
	db.MustInsert("A", "1")
	db.MustInsert("A", "2")
	db.MustInsert("B", "x")
	db.MustInsert("B", "y")
	db.MustInsert("B", "z")
	q := MustParse("Q(x, y) :- A(x), B(y)")
	if got := MustEvaluate(q, db).NumAnswers(); got != 6 {
		t.Errorf("cross product = %d, want 6", got)
	}
}

func TestEvaluateInvalidQuery(t *testing.T) {
	db := fig1DB()
	if _, err := Evaluate(MustParse("Q(x) :- Nope(x)"), db); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("err = %v, want ErrInvalidQuery", err)
	}
}

func TestEvaluateEmptyRelation(t *testing.T) {
	db := relation.NewInstance(
		relation.MustSchema("A", []string{"a"}, []int{0}),
		relation.MustSchema("B", []string{"b"}, []int{0}),
	)
	db.MustInsert("A", "1")
	q := MustParse("Q(x, y) :- A(x), B(y)")
	if got := MustEvaluate(q, db).NumAnswers(); got != 0 {
		t.Errorf("join with empty relation = %d, want 0", got)
	}
}

// naiveEvaluate is an index-free reference evaluator used to cross-check
// the planner/index machinery.
func naiveEvaluate(q *Query, db *relation.Instance) map[string]bool {
	answers := make(map[string]bool)
	assignment := make(map[string]relation.Value)
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Body) {
			head := make(relation.Tuple, len(q.Head))
			for j, t := range q.Head {
				head[j] = assignment[t.Var]
			}
			answers[head.Encode()] = true
			return
		}
		a := q.Body[i]
		for _, t := range db.Relation(a.Relation).Tuples() {
			bound := []string{}
			ok := true
			for p, term := range a.Terms {
				if !term.IsVar() {
					if term.Const != t[p] {
						ok = false
						break
					}
					continue
				}
				if v, have := assignment[term.Var]; have {
					if v != t[p] {
						ok = false
						break
					}
				} else {
					assignment[term.Var] = t[p]
					bound = append(bound, term.Var)
				}
			}
			if ok {
				rec(i + 1)
			}
			for _, v := range bound {
				delete(assignment, v)
			}
		}
	}
	rec(0)
	return answers
}

// TestEvaluateAgainstNaive cross-checks the indexed evaluator against the
// naive one on a family of random-ish instances and query shapes.
func TestEvaluateAgainstNaive(t *testing.T) {
	queries := []string{
		"Q(x, y, z) :- R(x, y), S(y, z)",
		"Q(x) :- R(x, y), S(y, z)",
		"Q(x, y) :- R(x, y), R(y, x)",
		"Q(x, y, z, w) :- R(x, y), S(z, w)",
		"Q(x) :- R(x, x)",
		"Q(y) :- R('0', y)",
	}
	// Small deterministic instance with collisions.
	db := relation.NewInstance(
		relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
		relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
	)
	vals := []string{"0", "1", "2"}
	for _, a := range vals {
		for _, b := range vals {
			if (a + b)[0]%2 == 0 {
				db.MustInsert("R", a, b)
			}
			if (b + a)[1]%3 != 0 {
				db.MustInsert("S", a, b)
			}
		}
	}
	for _, src := range queries {
		q := MustParse(src)
		res := MustEvaluate(q, db)
		want := naiveEvaluate(q, db)
		if res.NumAnswers() != len(want) {
			t.Errorf("%s: indexed=%d naive=%d", src, res.NumAnswers(), len(want))
			continue
		}
		for _, a := range res.Answers() {
			if !want[a.Tuple.Encode()] {
				t.Errorf("%s: extra answer %v", src, a.Tuple)
			}
		}
	}
}

// TestDerivationSemantics: a view tuple of a key-preserving query vanishes
// iff any tuple on its unique join path is deleted.
func TestDerivationSemantics(t *testing.T) {
	db := fig1DB()
	q4 := MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")
	res := MustEvaluate(q4, db)
	target := tup("John", "TKDE", "XML")
	ans, ok := res.Lookup(target)
	if !ok {
		t.Fatal("missing target answer")
	}
	for _, tid := range ans.Derivations[0] {
		id := db.ByID(tid)
		db2 := db.Without([]relation.TupleID{id})
		res2 := MustEvaluate(q4, db2)
		if res2.Contains(target) {
			t.Errorf("deleting %v did not remove %v", id, target)
		}
	}
	// Deleting an unrelated tuple keeps it.
	db3 := db.Without([]relation.TupleID{{Relation: "T1", Tuple: tup("Joe", "TKDE")}})
	if !MustEvaluate(q4, db3).Contains(target) {
		t.Error("unrelated deletion removed target")
	}
}

func TestDerivationHelpers(t *testing.T) {
	db := relation.NewInstance(relation.MustSchema("A", []string{"a"}, []int{0}), relation.MustSchema("B", []string{"b"}, []int{0}))
	db.MustInsert("A", "1")
	db.MustInsert("B", "2")
	d := Derivation{0, 1, 0}
	if got := d.Format(db); got != "A(1) ⋈ B(2) ⋈ A(1)" {
		t.Errorf("Format = %q", got)
	}
}

func TestExplainPlan(t *testing.T) {
	db := fig1DB()
	q := MustParse("Q(x, z) :- T1(x, y), T2(y, z, w)")
	plan, err := ExplainPlan(q, db)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(plan), "\n")
	if len(lines) != 2 {
		t.Fatalf("plan lines = %d:\n%s", len(lines), plan)
	}
	// Smaller relation first (T2 has 3 rows, T1 has 4): with nothing
	// bound the planner breaks the tie toward the smaller relation.
	if !strings.Contains(lines[0], "T2") {
		t.Errorf("expected T2 first:\n%s", plan)
	}
	// Second step has the join variable bound.
	if !strings.Contains(lines[1], "1/2 positions bound") {
		t.Errorf("expected bound position report:\n%s", plan)
	}
	// Constants count as bound positions up front.
	plan, err = ExplainPlan(MustParse("Q(x) :- T1(x, 'TKDE')"), db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "1/2 positions bound") {
		t.Errorf("constant not counted as bound:\n%s", plan)
	}
	// Invalid query.
	if _, err := ExplainPlan(MustParse("Q(x) :- Nope(x)"), db); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestResultString(t *testing.T) {
	db := fig1DB()
	q := MustParse("Q(x) :- T1(x, 'TODS')")
	s := MustEvaluate(q, db).String()
	if s != "Q(D) = {(John)}" {
		t.Errorf("String = %q", s)
	}
}
