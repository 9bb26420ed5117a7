package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/server"
	"delprop/internal/textio"
	"delprop/internal/view"
	"delprop/internal/workload"
)

// instancesPerFamily and deletionsPerInstance size the rotation: every
// family contributes instancesPerFamily generated instances, each with
// deletionsPerInstance seeded requests. Several instances per family keep
// the figures steady from one workload seed to the next; one instance
// per family would let a single lucky or unlucky instance move them.
const (
	instancesPerFamily   = 8
	deletionsPerInstance = 4
)

// deletionSize is ‖ΔV‖ of every pooled request: two view tuples, so
// "auto" never takes the single-tuple exact path and the pivot family
// reaches the Algorithm 4 dynamic program.
const deletionSize = 2

// instance is one generated database and query set of a family. The
// server only ever sees the generated text.
type instance struct {
	family    string
	database  string   // textio database text
	queries   string   // datalog program text
	deletions []string // seeded textio deletion requests
	expected  []answer // expected answer per deletion
	// reevaluation holds, per deletion, how the reference answer's
	// provenance-based evaluation disagreed with re-evaluating the views
	// ("" when they agree).
	reevaluation []string

	baseTuples int
	viewTuples int
}

// request is one entry of the rotation: an instance and one of its
// deletions.
type request struct {
	inst *instance
	del  int
}

func (r request) want() answer { return r.inst.expected[r.del] }

// answer holds the canonical fields of a solve response: the fields that
// must match between the in-process reference, cold, warm and batch.
type answer struct {
	Solver     string
	Deleted    []string // "Rel(v1, v2)", sorted
	Feasible   bool
	SideEffect float64
}

func (a answer) equal(b answer) bool {
	return a.Solver == b.Solver && a.Feasible == b.Feasible && a.SideEffect == b.SideEffect &&
		slices.Equal(a.Deleted, b.Deleted)
}

func (a answer) String() string {
	return fmt.Sprintf("%s feasible=%v sideEffect=%v deleted=%v", a.Solver, a.Feasible, a.SideEffect, a.Deleted)
}

// responseAnswer extracts the canonical fields from a server response.
func responseAnswer(r *server.SolveResponse) answer {
	a := answer{Solver: r.Solver, Feasible: r.Feasible, SideEffect: r.SideEffect}
	for _, t := range r.Deleted {
		a.Deleted = append(a.Deleted, t.Relation+"("+strings.Join(t.Values, ", ")+")")
	}
	sort.Strings(a.Deleted)
	return a
}

// solutionAnswer extracts the canonical fields from an in-process solve.
func solutionAnswer(solver string, sol *core.Solution, rep core.Report) answer {
	a := answer{Solver: solver, Feasible: rep.Feasible, SideEffect: rep.SideEffect}
	for _, id := range sol.Deleted {
		vals := make([]string, len(id.Tuple))
		for i, v := range id.Tuple {
			vals[i] = string(v)
		}
		a.Deleted = append(a.Deleted, id.Relation+"("+strings.Join(vals, ", ")+")")
	}
	sort.Strings(a.Deleted)
	return a
}

// familyNames is the rotation order. Each family stresses a different
// part of the solve path:
//   - star: high fan-out (many view tuples per base tuple), so view
//     materialization dominates; it sets the cold tail.
//   - chain: the forest case (interval queries over a path).
//   - bibliography: Fig. 1 scaled up, low fan-out.
//   - pivot: the Algorithm 4 case, which "auto" routes to dp-tree.
var familyNames = []string{"star", "chain", "bibliography", "pivot"}

// generate returns the named family's workload for one seed. The sizes
// keep every family under about three quarters of a workload's time
// while star stays materialization-heavy.
func generate(name string, seed int64) *workload.Workload {
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

// buildRotation generates every family's instances from the workload
// seed, renders the request text, samples the deletions and computes the
// expected answers in-process, one instance per CPU at a time. It
// returns the instances and the request rotation: round r holds one
// request per family, in familyNames order, so the four requests of a
// round cover every family once.
func buildRotation(seed int64) ([]*instance, []request, error) {
	insts := make([]*instance, len(familyNames)*instancesPerFamily)
	errs := make([]error, len(insts))
	next := make(chan int, len(insts))
	for i := range insts {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				name := familyNames[i/instancesPerFamily]
				insts[i], errs[i] = newInstance(name, seed*int64(len(insts))+int64(i))
				if errs[i] != nil {
					errs[i] = fmt.Errorf("%s instance %d: %w", name, i%instancesPerFamily, errs[i])
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	var rot []request
	for r := 0; r < instancesPerFamily*deletionsPerInstance; r++ {
		for fi := range familyNames {
			inst := insts[fi*instancesPerFamily+r%instancesPerFamily]
			rot = append(rot, request{inst: inst, del: r / instancesPerFamily})
		}
	}
	return insts, rot, nil
}

func newInstance(name string, seed int64) (*instance, error) {
	wl := generate(name, seed)
	qs := make([]string, len(wl.Queries))
	for j, q := range wl.Queries {
		qs[j] = q.String()
	}
	inst := &instance{
		family:   name,
		database: textio.FormatDatabase(wl.DB),
		queries:  strings.Join(qs, "\n") + "\n",
	}
	db, queries, err := parseInstance(inst.database, inst.queries)
	if err != nil {
		return nil, err
	}
	skel, err := core.NewProblem(db, queries, nil)
	if err != nil {
		return nil, err
	}
	inst.baseTuples, inst.viewTuples = db.Size(), skel.TotalViewSize()
	for k := 0; k < deletionsPerInstance; k++ {
		del := workload.SampleDeletion(skel.Views, deletionSize, seed*1000+int64(k))
		text := formatDeletion(del, queries)
		want, mismatch, err := referenceAnswer(inst, text)
		if err != nil {
			return nil, fmt.Errorf("deletion %d: %w", k, err)
		}
		if mismatch != "" {
			mismatch = fmt.Sprintf("%s deletion %d: %s", name, k, mismatch)
		}
		inst.reevaluation = append(inst.reevaluation, mismatch)
		inst.deletions = append(inst.deletions, text)
		inst.expected = append(inst.expected, want)
	}
	return inst, nil
}

func parseInstance(database, queries string) (*relation.Instance, []*cq.Query, error) {
	db, err := textio.ParseDatabase(database)
	if err != nil {
		return nil, nil, fmt.Errorf("database: %w", err)
	}
	qs, err := cq.ParseProgram(queries)
	if err != nil {
		return nil, nil, fmt.Errorf("queries: %w", err)
	}
	return db, qs, nil
}

// formatDeletion renders a deletion request in the textio syntax, one
// "QName(v1, v2)" line per view tuple.
func formatDeletion(del *view.Deletion, queries []*cq.Query) string {
	var b strings.Builder
	for _, ref := range del.Refs() {
		vals := make([]string, len(ref.Tuple))
		for i, v := range ref.Tuple {
			vals[i] = string(v)
		}
		fmt.Fprintf(&b, "%s(%s)\n", queries[ref.View].Name, strings.Join(vals, ", "))
	}
	return b.String()
}

// referenceAnswer solves one request in-process, the way a cold /solve
// does, and cross-checks the provenance-based evaluation against
// EvaluateByReevaluation; a disagreement comes back as mismatch.
func referenceAnswer(inst *instance, deletions string) (want answer, mismatch string, err error) {
	db, queries, err := parseInstance(inst.database, inst.queries)
	if err != nil {
		return answer{}, "", err
	}
	delta, err := textio.ParseDeletions(deletions, queries)
	if err != nil {
		return answer{}, "", err
	}
	p, err := core.NewProblem(db, queries, delta)
	if err != nil {
		return answer{}, "", err
	}
	solver, err := server.PickSolver("auto", p)
	if err != nil {
		return answer{}, "", err
	}
	sol, err := solver.Solve(context.Background(), p)
	if err != nil {
		return answer{}, "", err
	}
	rep := p.Evaluate(sol)
	check, err := p.EvaluateByReevaluation(sol)
	if err != nil {
		return answer{}, "", err
	}
	if !rep.Feasible || check.Feasible != rep.Feasible || check.SideEffect != rep.SideEffect {
		mismatch = fmt.Sprintf("evaluation disagrees: provenance %v, re-evaluation %v", rep, check)
	}
	return solutionAnswer(solver.Name(), sol, rep), mismatch, nil
}
