package cq

import (
	"errors"
	"math/rand"
	"testing"

	"delprop/internal/relation"
)

func TestIsAcyclic(t *testing.T) {
	cases := []struct {
		src     string
		acyclic bool
	}{
		{"Q(x, y, z) :- R(x, y), S(y, z)", true},
		{"Q(x) :- R(x, y), S(y, z), T(z, x)", false}, // triangle
		{"Q(x, y) :- R(x, y)", true},
		{"Q(x, y, z, w) :- R(x, y), S(z, w)", true}, // cross product
		{"Q(x, y, z) :- R(x, y), R(y, z)", true},    // self-join path
	}
	for _, c := range cases {
		if got := IsAcyclic(MustParse(c.src)); got != c.acyclic {
			t.Errorf("IsAcyclic(%s) = %v, want %v", c.src, got, c.acyclic)
		}
	}
}

func TestYannakakisRejectsCyclic(t *testing.T) {
	db := relation.NewInstance(
		relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
		relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
		relation.MustSchema("T", []string{"a", "b"}, []int{0, 1}),
	)
	q := MustParse("Q(x) :- R(x, y), S(y, z), T(z, x)")
	if _, err := EvaluateYannakakis(q, db); !errors.Is(err, ErrCyclicQuery) {
		t.Errorf("err = %v, want ErrCyclicQuery", err)
	}
}

func TestYannakakisValidation(t *testing.T) {
	db := fig1DB()
	if _, err := EvaluateYannakakis(MustParse("Q(x) :- Nope(x)"), db); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("err = %v, want ErrInvalidQuery", err)
	}
}

// resultsEqual compares two results as answer sets with derivation counts.
func resultsEqual(a, b *Result) bool {
	if a.NumAnswers() != b.NumAnswers() {
		return false
	}
	for _, ans := range a.Answers() {
		other, ok := b.Lookup(ans.Tuple)
		if !ok || len(other.Derivations) != len(ans.Derivations) {
			return false
		}
		seen := make(map[string]bool)
		for _, d := range other.Derivations {
			seen[d.Format(b.DB)] = true
		}
		for _, d := range ans.Derivations {
			if !seen[d.Format(a.DB)] {
				return false
			}
		}
	}
	return true
}

func TestYannakakisMatchesEvaluateFig1(t *testing.T) {
	db := fig1DB()
	for _, src := range []string{
		"Q3(x, z) :- T1(x, y), T2(y, z, w)",
		"Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
		"Q(x) :- T1(x, 'TKDE')",
	} {
		q := MustParse(src)
		a := MustEvaluate(q, db)
		b, err := EvaluateYannakakis(q, db)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !resultsEqual(a, b) {
			t.Errorf("%s: %s vs yannakakis %s", src, a, b)
		}
	}
}

func TestYannakakisSelfJoinAndCross(t *testing.T) {
	db := relation.NewInstance(
		relation.MustSchema("E", []string{"src", "dst"}, []int{0, 1}),
		relation.MustSchema("L", []string{"v"}, []int{0}),
	)
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"b", "b"}} {
		db.MustInsert("E", e[0], e[1])
	}
	db.MustInsert("L", "x")
	db.MustInsert("L", "y")
	for _, src := range []string{
		"P(x, y, z) :- E(x, y), E(y, z)",
		"P(x, y, z, w) :- E(x, y), E(y, z), E(z, w)",
		"Q(v) :- E(v, v)",
		"C(x, y, l) :- E(x, y), L(l)",
	} {
		q := MustParse(src)
		a := MustEvaluate(q, db)
		b, err := EvaluateYannakakis(q, db)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !resultsEqual(a, b) {
			t.Errorf("%s: mismatch\n  backtracking: %s\n  yannakakis:   %s", src, a, b)
		}
	}
}

// TestYannakakisMatchesEvaluateRandom fuzzes both evaluators against each
// other over random chain databases with dangling tuples — the regime
// Yannakakis exists for.
func TestYannakakisMatchesEvaluateRandom(t *testing.T) {
	queries := []string{
		"Q(a, b, c) :- R(a, b), S(b, c)",
		"Q(a, b, c, d) :- R(a, b), S(b, c), U(c, d)",
		"Q(a, d) :- R(a, b), S(b, c), U(c, d)",
		"Q(a, b, d, e) :- R(a, b), U(d, e)",
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := relation.NewInstance(
			relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
			relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
			relation.MustSchema("U", []string{"a", "b"}, []int{0, 1}),
		)
		for _, rel := range []string{"R", "S", "U"} {
			for i := 0; i < 12; i++ {
				a := rng.Intn(5)
				b := rng.Intn(5)
				_ = db.Insert(rel, relation.Tuple{
					relation.Value(string(rune('0' + a))),
					relation.Value(string(rune('0' + b))),
				})
			}
		}
		for _, src := range queries {
			q := MustParse(src)
			a := MustEvaluate(q, db)
			b, err := EvaluateYannakakis(q, db)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, src, err)
			}
			if !resultsEqual(a, b) {
				t.Errorf("seed %d %s: evaluator disagreement", seed, src)
			}
		}
	}
}

func TestYannakakisEmptyRelation(t *testing.T) {
	db := relation.NewInstance(
		relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
		relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
	)
	db.MustInsert("R", "1", "2")
	q := MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	res, err := EvaluateYannakakis(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumAnswers() != 0 {
		t.Errorf("answers = %d, want 0", res.NumAnswers())
	}
}
