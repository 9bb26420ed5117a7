package core

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
	"delprop/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_solvers.txt from the current solvers")

// goldenSolvers is the production registry (registry.go) at the time the
// golden file was recorded; test-only registrations are left out.
var goldenSolvers = []string{
	"balanced-exact", "balanced-red-blue", "brute-force", "dp-tree",
	"greedy", "greedy-parallel", "local-search", "low-deg",
	"portfolio", "portfolio-parallel", "primal-dual", "red-blue",
	"red-blue-exact", "single-exact", "unidimensional",
}

// goldenMaxCandidates and goldenMaxSets cap the exponential solvers (the
// brute-force mask scan and the branch-and-bound searches) so the sweep
// stays fast; larger instances record the size refusal instead.
const (
	goldenMaxCandidates = 10
	goldenMaxSets       = 14
)

type goldenCase struct {
	name string
	p    *Problem
}

// goldenFamily mirrors the request benchmark's family sizes
// (perfbench/instances.go).
func goldenFamily(name string, seed int64) *workload.Workload {
	switch name {
	case "star":
		return workload.Star(workload.StarConfig{
			Seed: seed, Relations: 4, HubValues: 4, RowsPerRelation: 24, Queries: 3, AtomsPerQuery: 3,
		})
	case "chain":
		return workload.Chain(workload.ChainConfig{
			Seed: seed, Length: 8, Domain: 8, RowsPerRelation: 32, Queries: 16, MaxSpan: 2,
		})
	case "bibliography":
		return workload.Bibliography(workload.BibliographyConfig{
			Seed: seed, Authors: 60, Journals: 12, Topics: 8, PapersPerAuthor: 4, TopicsPerJournal: 3,
		})
	case "pivot":
		return workload.Pivot(workload.PivotConfig{
			Seed: seed, Roots: 40, ChildrenPerRoot: 4, GrandPerChild: 3,
		})
	}
	panic("unknown family " + name)
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var out []goldenCase
	for _, fam := range []string{"star", "chain", "bibliography", "pivot"} {
		for _, seed := range []int64{1, 2} {
			w := goldenFamily(fam, seed)
			skel, err := NewProblem(w.DB, w.Queries, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{2, 5} {
				p, err := skel.Specialize(workload.SampleDeletion(skel.Views, n, seed*100+int64(n)))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, goldenCase{fmt.Sprintf("%s/seed%d/del%d", fam, seed, n), p})
			}
		}
	}
	// The instances of examples/: Fig. 1 (bibliography, annotation,
	// resilience, provenance) and the quickstart database.
	fig1 := workload.Fig1()
	ref := func(v int, vals ...string) view.TupleRef {
		t := make(relation.Tuple, len(vals))
		for i, s := range vals {
			t[i] = relation.Value(s)
		}
		return view.TupleRef{View: v, Tuple: t}
	}
	mk := func(name string, db *relation.Instance, qs []*cq.Query, refs ...view.TupleRef) {
		p, err := NewProblem(db, qs, view.NewDeletion(refs...))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenCase{name, p})
	}
	mk("examples/fig1-q3", fig1.DB, fig1.Queries[:1], ref(0, "John", "XML"))
	mk("examples/fig1-q4", fig1.DB, fig1.Queries[1:], ref(0, "John", "TKDE", "XML"))
	mk("examples/annotation", fig1.DB, append(append([]*cq.Query(nil), fig1.Queries...),
		cq.MustParse("Catalogue(y, z, p) :- T2(y, z, p)")),
		ref(0, "John", "XML"), ref(0, "John", "CUBE"),
		ref(1, "John", "TKDE", "XML"), ref(1, "John", "TKDE", "CUBE"), ref(1, "John", "TODS", "XML"))
	qdb := relation.NewInstance(
		relation.MustSchema("Emp", []string{"name", "dept"}, []int{0}),
		relation.MustSchema("Dept", []string{"dept", "floor"}, []int{0}),
	)
	qdb.MustInsert("Emp", "ada", "eng")
	qdb.MustInsert("Emp", "bob", "eng")
	qdb.MustInsert("Emp", "cyd", "ops")
	qdb.MustInsert("Dept", "eng", "3")
	qdb.MustInsert("Dept", "ops", "1")
	mk("examples/quickstart", qdb, []*cq.Query{
		cq.MustParse("Where(n, d, f) :- Emp(n, d), Dept(d, f)"),
		cq.MustParse("Staff(n, d) :- Emp(n, d)"),
	}, ref(0, "bob", "eng", "3"))
	return out
}

// goldenSolve runs one registered solver, capping the exponential ones.
func goldenSolve(name string, p *Problem) (*Solution, error) {
	s, err := NewSolver(name)
	if err != nil {
		return nil, err
	}
	switch s := s.(type) {
	case *BruteForce:
		s.MaxCandidates = goldenMaxCandidates
	case *RedBlueExact:
		s.MaxSets = goldenMaxSets
	case *BalancedRedBlue:
		if s.Exact {
			s.MaxSets = goldenMaxSets
		}
	}
	return s.Solve(context.Background(), p)
}

func goldenRecord(t *testing.T) string {
	var b strings.Builder
	for _, c := range goldenCases(t) {
		lb, err := DualBound(c.p)
		if err != nil {
			fmt.Fprintf(&b, "%s dual-bound error=%q\n", c.name, err)
		} else {
			fmt.Fprintf(&b, "%s dual-bound %v\n", c.name, lb)
		}
		for _, name := range goldenSolvers {
			sol, err := goldenSolve(name, c.p)
			if err != nil {
				if errors.Is(err, ErrTooLarge) {
					err = ErrTooLarge
				}
				fmt.Fprintf(&b, "%s %s error=%q\n", c.name, name, err)
				continue
			}
			rep := c.p.Evaluate(sol)
			deleted := "-"
			if name != "portfolio-parallel" {
				// The parallel race may prove optimality with either of two
				// equally good members; only its objective is deterministic.
				parts := make([]string, len(sol.Deleted))
				for i, id := range sol.Deleted {
					parts[i] = id.String()
				}
				sort.Strings(parts)
				deleted = "[" + strings.Join(parts, " ") + "]"
			}
			fmt.Fprintf(&b, "%s %s feasible=%v sideEffect=%v deleted=%s\n", c.name, name, rep.Feasible, rep.SideEffect, deleted)
		}
	}
	return b.String()
}

// TestGoldenSolverOutputs pins every registered solver's answer on the
// benchmark families and the example instances: solver, sorted deletion,
// feasibility, side effect and the DualBound certificate. Regenerate with
// go test ./internal/core -run TestGoldenSolverOutputs -update-golden.
func TestGoldenSolverOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short")
	}
	for _, name := range goldenSolvers {
		if _, err := NewSolver(name); err != nil {
			t.Fatal(err)
		}
	}
	got := goldenRecord(t)
	path := filepath.Join("testdata", "golden_solvers.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}
