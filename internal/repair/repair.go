// Package repair orchestrates the query-oriented interactive cleaning
// workflow of Section V: an oracle (domain expert, crowd, or rule engine)
// inspects query answers; deletion propagation translates the negative
// feedback into source deletions; the session iterates until no wrong
// answers remain visible. The cmd/qocosim simulator and the data-cleaning
// example are thin wrappers over this package.
package repair

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/fd"
	"delprop/internal/relation"
	"delprop/internal/view"
)

// Oracle judges one view tuple of the current problem; true means the
// tuple is wrong and should be deleted.
type Oracle func(p *core.Problem, ref view.TupleRef) bool

// PlantedOracle builds an oracle from ground-truth corrupt source tuples:
// a view tuple is wrong iff some derivation touches a corrupt tuple. The
// returned set is shared; deleting tuples from it updates the oracle.
func PlantedOracle(corrupt map[string]bool) Oracle {
	return func(p *core.Problem, ref view.TupleRef) bool {
		ans, ok := p.Answer(ref)
		if !ok {
			return false
		}
		for _, d := range ans.Derivations {
			for _, t := range d {
				if corrupt[p.DB.ByID(t).Key()] {
					return true
				}
			}
		}
		return false
	}
}

// FDOracle builds an oracle from functional dependencies: a view tuple is
// wrong iff some derivation touches a source tuple participating in an FD
// violation of the CURRENT database. This is the rule-based error
// detection the paper's cleaning discussion mentions alongside
// user-specification; as violating tuples are deleted, the oracle's
// verdicts update automatically.
func FDOracle(attrFDs map[string]*fd.Set) Oracle {
	// The violation set only depends on the problem's database; cache it
	// per problem (sessions are single-threaded).
	var cachedFor *core.Problem
	var bad map[string]bool
	return func(p *core.Problem, ref view.TupleRef) bool {
		if p != cachedFor {
			vs, err := fd.CheckInstance(p.DB, attrFDs)
			if err != nil {
				return false
			}
			bad = make(map[string]bool)
			for _, v := range vs {
				for _, id := range v.Tuples() {
					bad[id.Key()] = true
				}
			}
			cachedFor = p
		}
		if len(bad) == 0 {
			return false
		}
		ans, ok := p.Answer(ref)
		if !ok {
			return false
		}
		for _, d := range ans.Derivations {
			for _, t := range d {
				if bad[p.DB.ByID(t).Key()] {
					return true
				}
			}
		}
		return false
	}
}

// Mode selects how a round's feedback is propagated.
type Mode int

const (
	// Batch solves one multi-tuple problem per round (the paper's
	// setting).
	Batch Mode = iota
	// Sequential solves one problem per marked tuple, applying deletions
	// immediately (the order-dependent regime the paper argues against).
	Sequential
)

// Session is one interactive cleaning run. DB is mutated as deletions are
// applied.
type Session struct {
	DB      *relation.Instance
	Queries []*cq.Query
	Oracle  Oracle
	// Solver propagates feedback (core.RedBlue when nil).
	Solver core.Solver
	Mode   Mode
	// Rng drives the oracle's sampling (required).
	Rng *rand.Rand

	totalDeleted int
}

// RoundReport describes one interaction round.
type RoundReport struct {
	Round   int
	Wrong   int // wrong view tuples visible before the round
	Marked  int // tuples the oracle inspected and condemned
	Deleted []relation.TupleID
}

// ErrNoOracle is returned when the session lacks an oracle or RNG.
var ErrNoOracle = errors.New("repair: session needs an Oracle and a Rng")

func (s *Session) solver() core.Solver {
	if s.Solver != nil {
		return s.Solver
	}
	return &core.RedBlue{}
}

// wrongRefs materializes the current problem and lists every wrong view
// tuple.
func (s *Session) wrongRefs() (*core.Problem, []view.TupleRef, error) {
	p, err := core.NewProblem(s.DB, s.Queries, nil)
	if err != nil {
		return nil, nil, err
	}
	var wrong []view.TupleRef
	for _, v := range p.Views {
		for _, ans := range v.Result.Answers() {
			ref := view.TupleRef{View: v.Index, Tuple: ans.Tuple}
			if s.Oracle(p, ref) {
				wrong = append(wrong, ref)
			}
		}
	}
	return p, wrong, nil
}

// Round performs one interaction round with an inspection budget of k view
// tuples, applying the resulting deletions to DB. converged is true when
// no wrong view tuples were visible (no work done).
func (s *Session) Round(round, k int) (RoundReport, bool, error) {
	if s.Oracle == nil || s.Rng == nil {
		return RoundReport{}, false, ErrNoOracle
	}
	p, wrong, err := s.wrongRefs()
	if err != nil {
		return RoundReport{}, false, err
	}
	rep := RoundReport{Round: round, Wrong: len(wrong)}
	if len(wrong) == 0 {
		return rep, true, nil
	}
	perm := s.Rng.Perm(len(wrong))
	if k > len(wrong) {
		k = len(wrong)
	}
	marked := make([]view.TupleRef, 0, k)
	for _, i := range perm[:k] {
		marked = append(marked, wrong[i])
	}
	rep.Marked = len(marked)

	apply := func(deleted []relation.TupleID) {
		for _, id := range deleted {
			if s.DB.Delete(id) {
				rep.Deleted = append(rep.Deleted, id)
			}
		}
	}
	switch s.Mode {
	case Batch:
		for _, ref := range marked {
			p.Delta.Add(ref)
		}
		sol, err := s.solver().Solve(context.Background(), p)
		if err != nil {
			return rep, false, fmt.Errorf("repair: round %d: %w", round, err)
		}
		apply(sol.Deleted)
	case Sequential:
		for _, ref := range marked {
			sub, err := core.NewProblem(s.DB, s.Queries, nil)
			if err != nil {
				return rep, false, err
			}
			if !sub.Views[ref.View].Result.Contains(ref.Tuple) {
				continue // already gone from an earlier deletion
			}
			sub.Delta.Add(ref)
			sol, err := s.solver().Solve(context.Background(), sub)
			if err != nil {
				return rep, false, fmt.Errorf("repair: round %d: %w", round, err)
			}
			apply(sol.Deleted)
		}
	default:
		return rep, false, fmt.Errorf("repair: unknown mode %d", s.Mode)
	}
	s.totalDeleted += len(rep.Deleted)
	return rep, false, nil
}

// Run performs rounds until convergence or maxRounds, returning the
// per-round reports (the final report, when converged, has Wrong == 0).
func (s *Session) Run(maxRounds, perRound int) ([]RoundReport, error) {
	var out []RoundReport
	for round := 1; round <= maxRounds; round++ {
		rep, converged, err := s.Round(round, perRound)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
		if converged {
			break
		}
	}
	return out, nil
}

// TotalDeleted reports the source tuples removed so far.
func (s *Session) TotalDeleted() int { return s.totalDeleted }
