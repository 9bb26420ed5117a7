package cq_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/workload"
)

// derivations copies every derivation of every answer.
func derivations(res *cq.Result) [][]cq.Derivation {
	out := make([][]cq.Derivation, res.NumAnswers())
	for i := range out {
		for k := range res.NumDerivations(i) {
			out[i] = append(out[i], slices.Clone(res.Derivation(i, k)))
		}
	}
	return out
}

// TestDerivationAppendIsolated: derivations share one array, so a
// derivation's capacity must end where it does — appending to one copies
// instead of overwriting the next.
func TestDerivationAppendIsolated(t *testing.T) {
	db := relation.NewInstance(
		relation.MustSchema("T1", []string{"A", "B"}, []int{0, 1}),
		relation.MustSchema("T2", []string{"B", "C", "D"}, []int{0, 1}),
	)
	for _, r := range [][]string{{"John", "TKDE"}, {"John", "TODS"}, {"Joe", "TKDE"}} {
		db.MustInsert("T1", r...)
	}
	for _, r := range [][]string{{"TKDE", "XML", "30"}, {"TODS", "XML", "30"}, {"TKDE", "CUBE", "30"}} {
		db.MustInsert("T2", r...)
	}
	for _, src := range []string{
		"Q3(x, z) :- T1(x, y), T2(y, z, w)",    // John/XML has two derivations
		"Q4(x, y, z) :- T1(x, y), T2(y, z, w)", // key-preserving
	} {
		res := cq.MustEvaluate(cq.MustParse(src), db)
		want := derivations(res)
		for i := range res.NumAnswers() {
			for k := range res.NumDerivations(i) {
				d := res.Derivation(i, k)
				if cap(d) != len(d) {
					t.Fatalf("%s: derivation (%d,%d) has spare capacity %d", src, i, k, cap(d)-len(d))
				}
				_ = append(d, relation.TID(1<<31))
			}
		}
		if got := derivations(res); !slices.EqualFunc(got, want, func(a, b []cq.Derivation) bool {
			return slices.EqualFunc(a, b, slices.Equal)
		}) {
			t.Errorf("%s: appending to derivations changed them: %v, want %v", src, got, want)
		}
	}
}

// corpusQueries parses the checked-in FuzzParse corpus, keeping the
// entries that are queries.
func corpusQueries(t *testing.T) []*cq.Query {
	dir := filepath.Join("testdata", "fuzz", "FuzzParse")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []*cq.Query
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// Each file is "go test fuzz v1" followed by one string(...) line.
		_, line, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if q, err := cq.Parse(src); err == nil {
			out = append(out, q)
		}
	}
	return out
}

// selfJoined renames every atom to one relation per arity, E<arity>, so
// atoms over distinct relations become a self-join with symmetric roles.
func selfJoined(q *cq.Query) *cq.Query {
	out := &cq.Query{Name: q.Name, Head: q.Head}
	for _, a := range q.Body {
		out.Body = append(out.Body, cq.Atom{Relation: fmt.Sprintf("E%d", len(a.Terms)), Terms: a.Terms})
	}
	return out
}

// randomInstance holds a relation for every atom of the queries, keyed on
// its first attribute, filled with rows over a small domain (so joins and
// self-joins match often) that include the queries' constants.
func randomInstance(rng *rand.Rand, queries []*cq.Query) *relation.Instance {
	db := relation.NewInstance()
	domain := []string{"a", "b", "c"}
	for _, q := range queries {
		for _, a := range q.Body {
			for _, term := range a.Terms {
				if !term.IsVar() && !slices.Contains(domain, string(term.Const)) {
					domain = append(domain, string(term.Const))
				}
			}
		}
	}
	for _, q := range queries {
		for _, a := range q.Body {
			if db.HasRelation(a.Relation) {
				continue
			}
			attrs := make([]string, len(a.Terms))
			for i := range attrs {
				attrs[i] = fmt.Sprintf("c%d", i)
			}
			db.AddRelation(relation.MustSchema(a.Relation, attrs, []int{0}))
			for range 4 * len(domain) {
				row := make(relation.Tuple, len(attrs))
				for i := range row {
					row[i] = relation.Value(domain[rng.Intn(len(domain))])
				}
				_ = db.Insert(a.Relation, row) // key collisions are skipped
			}
		}
	}
	return db
}

// checkNoRepeatedDerivation fails when some answer lists a derivation
// twice: the evaluator keeps no dedupe, relying on the join to visit
// every assignment of tuples to atoms once.
func checkNoRepeatedDerivation(t *testing.T, q *cq.Query, db *relation.Instance) {
	t.Helper()
	res, err := cq.Evaluate(q, db)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	for i := range res.NumAnswers() {
		for k := range res.NumDerivations(i) {
			for j := range k {
				if slices.Equal(res.Derivation(i, j), res.Derivation(i, k)) {
					t.Fatalf("%s: answer %v lists derivation %s twice", q, res.Head(i), res.Derivation(i, k).Format(db))
				}
			}
		}
	}
}

// TestNoRepeatedDerivations runs self-join workloads and the FuzzParse
// corpus queries, as written and self-joined, through the evaluator.
func TestNoRepeatedDerivations(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		w := workload.SelfJoin(workload.SelfJoinConfig{Seed: seed, Nodes: 6, Edges: 14, Queries: 4, MaxLen: 3})
		for _, q := range w.Queries {
			checkNoRepeatedDerivation(t, q, w.DB)
			// Projecting the path's inner nodes away gives answers several
			// derivations.
			proj := &cq.Query{Name: q.Name, Head: []cq.Term{q.Head[0], q.Head[len(q.Head)-1]}, Body: q.Body}
			checkNoRepeatedDerivation(t, proj, w.DB)
		}
	}
	queries := corpusQueries(t)
	if len(queries) == 0 {
		t.Fatal("no queries in the FuzzParse corpus")
	}
	rng := rand.New(rand.NewSource(1))
	for _, q := range queries {
		for _, q := range []*cq.Query{q, selfJoined(q)} {
			for range 3 {
				checkNoRepeatedDerivation(t, q, randomInstance(rng, []*cq.Query{q}))
			}
		}
	}
}

// TestEvaluateAllocsPerAnswer: evaluation allocates per query, not per
// answer. Doubling the rows of the request benchmark's star family
// multiplies the answers about eightfold; the allocation count may grow
// only by slice and table growth steps.
func TestEvaluateAllocsPerAnswer(t *testing.T) {
	measure := func(rows int) (allocs float64, answers int) {
		w := workload.Star(workload.StarConfig{
			Seed: 1, Relations: 4, HubValues: 4, RowsPerRelation: rows, Queries: 3, AtomsPerQuery: 3,
		})
		q := w.Queries[0]
		answers = cq.MustEvaluate(q, w.DB).NumAnswers()
		allocs = testing.AllocsPerRun(10, func() { cq.MustEvaluate(q, w.DB) })
		return allocs, answers
	}
	small, smallAnswers := measure(24)
	large, largeAnswers := measure(48)
	if largeAnswers < 4*smallAnswers {
		t.Fatalf("answers %d -> %d: doubling the rows should multiply them", smallAnswers, largeAnswers)
	}
	if large-small > 16 {
		t.Errorf("allocations %v -> %v for answers %d -> %d: more than growth steps", small, large, smallAnswers, largeAnswers)
	}
}
