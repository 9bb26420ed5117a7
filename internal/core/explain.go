package core

import (
	"fmt"
	"sort"
	"strings"

	"delprop/internal/relation"
	"delprop/internal/view"
)

// ExplainSolution renders a human-readable justification of a deletion:
// for every deleted tuple, the requested view tuples it helps eliminate
// and the preserved view tuples it damages — the report a data steward
// reviews before applying the repair.
func ExplainSolution(p *Problem, sol *Solution) string {
	var b strings.Builder
	rep := p.Evaluate(sol)
	fmt.Fprintf(&b, "deletion of %d source tuples: %s\n", len(sol.Deleted), rep)
	// Known tuples in canonical order; tuples outside the instance touch
	// no view tuple and come last.
	var known []relation.TID
	var unknown []relation.TupleID
	var seen relation.IDSet
	for _, id := range sol.Deleted {
		t, ok := p.DB.ID(id)
		switch {
		case !ok:
			unknown = append(unknown, id)
		case !seen.Has(t):
			seen.Add(t)
			known = append(known, t)
		}
	}
	p.sortTuples(known)
	for _, t := range known {
		var kills, damages []string
		for _, occ := range p.Inverted().Occurrences(t) {
			id := int(occ.Ref)
			ref, _ := view.Resolve(p.Views, id)
			if p.Delta.Has(id) {
				kills = append(kills, ref.String())
			} else if occ.Critical {
				damages = append(damages, fmt.Sprintf("%s (w=%v)", ref, p.weight(id)))
			} else {
				damages = append(damages, fmt.Sprintf("%s (survivable)", ref))
			}
		}
		sort.Strings(kills)
		sort.Strings(damages)
		fmt.Fprintf(&b, "  delete %s\n", p.DB.ByID(t))
		if len(kills) > 0 {
			fmt.Fprintf(&b, "    eliminates: %s\n", strings.Join(kills, ", "))
		}
		if len(damages) > 0 {
			fmt.Fprintf(&b, "    damages:    %s\n", strings.Join(damages, ", "))
		}
		if len(kills) == 0 && len(damages) == 0 {
			fmt.Fprintf(&b, "    touches no view tuple\n")
		}
	}
	for _, id := range unknown {
		fmt.Fprintf(&b, "  delete %s\n    touches no view tuple\n", id)
	}
	return b.String()
}

// ExplainRequest renders, for one requested view tuple, the deletion
// options and their collateral — the decision surface of the single-tuple
// case.
func ExplainRequest(p *Problem, ref view.TupleRef) (string, error) {
	ans, ok := p.Answer(ref)
	if !ok {
		return "", fmt.Errorf("core: %s is not a view tuple", ref)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "options for eliminating %s (%d derivation(s)):\n", ref, len(ans.Derivations))
	for di, d := range ans.Derivations {
		fmt.Fprintf(&b, "  derivation %d: %s\n", di+1, d.Format(p.DB))
		path := append([]relation.TID(nil), view.Distinct(d)...)
		p.sortTuples(path)
		for _, t := range path {
			rep := p.evaluateIDs([]relation.TID{t})
			fmt.Fprintf(&b, "    delete %s -> side-effect %v\n", p.DB.ByID(t), rep.SideEffect)
		}
	}
	return b.String(), nil
}
