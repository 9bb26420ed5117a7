// Datacleaning demonstrates the query-oriented cleaning scenario of
// Section V: an oracle (a domain expert or crowd, here simulated) marks
// wrong answers across the results of several queries; batch deletion
// propagation removes them from the source with minimum collateral damage,
// and we compare the batch solution against processing the feedback one
// query at a time — the order-dependent regime the paper argues against.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"delprop/internal/core"
	"delprop/internal/relation"
	"delprop/internal/view"
	"delprop/internal/workload"
)

func main() {
	// A bibliography-like source with injected errors: some Author rows
	// point at the wrong journal.
	w := workload.Star(workload.StarConfig{
		Seed: 42, Relations: 4, HubValues: 4, RowsPerRelation: 8,
		Queries: 3, AtomsPerQuery: 2,
	})
	p, err := core.NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		log.Fatal(err)
	}

	// The "oracle": every view tuple derived from a corrupt source row is
	// wrong. Corrupt rows are a seeded random subset.
	rng := rand.New(rand.NewSource(7))
	corrupt := map[string]bool{}
	for _, id := range p.DB.AllTuples() {
		if rng.Intn(6) == 0 {
			corrupt[id.Key()] = true
		}
	}
	for _, v := range p.Views {
		for _, ans := range v.Result.Answers() {
			for _, d := range ans.Derivations {
				for _, t := range d {
					if corrupt[p.DB.ByID(t).Key()] {
						p.Delta.Add(view.TupleRef{View: v.Index, Tuple: ans.Tuple})
					}
				}
			}
		}
	}
	fmt.Printf("oracle marked %d of %d view tuples as wrong (from %d corrupt source rows)\n",
		p.Delta.Len(), p.TotalViewSize(), len(corrupt))
	if p.Delta.Len() == 0 {
		fmt.Println("nothing to clean")
		return
	}

	// Batch propagation (this paper): one solve over all feedback.
	batch, err := (&core.RedBlue{}).Solve(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	batchRep := p.Evaluate(batch)
	fmt.Printf("batch:      delete %d source tuples, side-effect %v, feasible=%v\n",
		batchRep.DeletedCount, batchRep.SideEffect, batchRep.Feasible)

	// Sequential per-query processing (the QOCO-style regime): solve each
	// query's feedback in isolation and union the deletions.
	perView := p.Delta.PerView()
	seen := map[string]bool{}
	var seq []relation.TupleID
	for vi := 0; vi < len(p.Views); vi++ {
		refs := perView[vi]
		if len(refs) == 0 {
			continue
		}
		sub, err := core.NewProblem(p.DB, w.Queries[vi:vi+1], nil)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range refs {
			sub.Delta.Add(view.TupleRef{View: 0, Tuple: r.Tuple})
		}
		sol, err := (&core.RedBlue{}).Solve(context.Background(), sub)
		if err != nil {
			log.Fatal(err)
		}
		for _, id := range sol.Deleted {
			if !seen[id.Key()] {
				seen[id.Key()] = true
				seq = append(seq, id)
			}
		}
	}
	seqRep := p.Evaluate(&core.Solution{Deleted: seq})
	fmt.Printf("sequential: delete %d source tuples, side-effect %v, feasible=%v\n",
		seqRep.DeletedCount, seqRep.SideEffect, seqRep.Feasible)
	fmt.Printf("\nbatch - sequential side-effect difference: %v (≤ 0 means batch wins or ties)\n",
		batchRep.SideEffect-seqRep.SideEffect)

	// The balanced variant: when feedback may be noisy, trade leftover bad
	// tuples against collateral damage (Section V, "Balanced version").
	bal, err := (&core.BalancedRedBlue{}).Solve(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	balRep := p.Evaluate(bal)
	fmt.Printf("balanced:   delete %d tuples, %d bad left + %v collateral = %v\n",
		balRep.DeletedCount, balRep.BadRemaining, balRep.SideEffect, balRep.Balanced)
}
