package cq

import (
	"errors"
	"fmt"
	"sort"

	"delprop/internal/hypergraph"
	"delprop/internal/relation"
)

// This file implements the Yannakakis algorithm for α-acyclic conjunctive
// queries: build a join tree of the body's hypergraph, run a bottom-up +
// top-down semi-join sweep to remove dangling tuples, then join along the
// tree. For acyclic queries this evaluates in time polynomial in input +
// output, whereas the generic backtracking evaluator can touch
// exponentially many dead-end partial matches. The deletion-propagation
// solvers accept results from either evaluator; tests cross-check them.

// ErrCyclicQuery is returned when the query's hypergraph is not α-acyclic.
var ErrCyclicQuery = errors.New("cq: query hypergraph is not α-acyclic")

// IsAcyclic reports whether the query's body hypergraph (one hyperedge of
// variables per atom) is α-acyclic.
func IsAcyclic(q *Query) bool {
	return buildJoinTree(q) != nil
}

// atomNode is one body atom's state during the Yannakakis sweep.
type atomNode struct {
	atom Atom
	// rows holds the current (semi-join-reduced) candidate tuples.
	rows []relation.Tuple
	// children/parent per the rooted join tree.
	children []int
	parent   int
}

// joinTreeOf builds a rooted join tree over body-atom indexes, or nil.
func buildJoinTree(q *Query) *hypergraph.JoinTree {
	h := hypergraph.New()
	for i, a := range q.Body {
		vars := a.Vars()
		if len(vars) == 0 {
			// Variable-free atoms join with everything trivially; give
			// them a private pseudo-vertex so the tree stays connected
			// through weight-0 fallbacks.
			vars = []string{fmt.Sprintf("·const%d", i)}
		}
		h.AddEdge(hypergraph.NewEdge(fmt.Sprintf("a%d", i), vars...))
	}
	return h.JoinTree()
}

// EvaluateYannakakis computes Q(D) with provenance using the Yannakakis
// algorithm. Returns ErrCyclicQuery when the query is not α-acyclic (use
// Evaluate instead) and the same validation errors as Evaluate.
func EvaluateYannakakis(q *Query, db *relation.Instance) (*Result, error) {
	if err := q.Validate(InstanceSchemas(db)); err != nil {
		return nil, err
	}
	jt := buildJoinTree(q)
	if jt == nil {
		return nil, fmt.Errorf("%w: %s", ErrCyclicQuery, q)
	}
	n := len(q.Body)
	nodes := make([]*atomNode, n)
	for i, a := range q.Body {
		// Pre-filter per-atom selections (constants, repeated variables).
		var rows []relation.Tuple
		for _, t := range db.Relation(a.Relation).Tuples() {
			if matchesAtom(a, t) {
				rows = append(rows, t)
			}
		}
		nodes[i] = &atomNode{atom: a, rows: rows, parent: -1}
	}
	// Orient the join tree at node 0; the tree may be a forest when the
	// query has cross-products — each root is swept independently.
	visited := make([]bool, n)
	var roots []int
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		roots = append(roots, start)
		visited[start] = true
		queue := []int{start}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range jt.Adj[x] {
				if !visited[y] {
					visited[y] = true
					nodes[y].parent = x
					nodes[x].children = append(nodes[x].children, y)
					queue = append(queue, y)
				}
			}
		}
	}
	// Bottom-up semi-join: child reduces parent.
	var postorder []int
	var dfs func(int)
	dfs = func(x int) {
		for _, c := range nodes[x].children {
			dfs(c)
		}
		postorder = append(postorder, x)
	}
	for _, r := range roots {
		dfs(r)
	}
	for _, x := range postorder {
		p := nodes[x].parent
		if p < 0 {
			continue
		}
		nodes[p].rows = semiJoin(nodes[p].atom, nodes[p].rows, nodes[x].atom, nodes[x].rows)
	}
	// Top-down semi-join: parent reduces child (preorder = reverse
	// postorder).
	for i := len(postorder) - 1; i >= 0; i-- {
		x := postorder[i]
		for _, c := range nodes[x].children {
			nodes[c].rows = semiJoin(nodes[c].atom, nodes[c].rows, nodes[x].atom, nodes[x].rows)
		}
	}
	// Final join over the reduced relations with the generic evaluator:
	// after the full reduction every tuple participates in some answer, so
	// the backtracking join runs without dead ends.
	reduced := relation.NewInstance()
	// Atoms over the same relation must see the union of their reduced
	// rows (self-joins).
	byRel := make(map[string][]relation.Tuple)
	for _, nd := range nodes {
		byRel[nd.atom.Relation] = append(byRel[nd.atom.Relation], nd.rows...)
	}
	// Rebuild relations in sorted name order so the reduced instance's
	// layout (and anything that formats it) is reproducible.
	rels := make([]string, 0, len(byRel))
	for rel := range byRel {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		rows := byRel[rel]
		schema := db.Relation(rel).Schema()
		r := reduced.AddRelation(schema)
		seen := make(map[string]bool)
		for _, t := range rows {
			enc := t.Encode()
			if !seen[enc] {
				seen[enc] = true
				if err := r.Insert(t); err != nil {
					return nil, fmt.Errorf("cq: yannakakis reinsert: %w", err)
				}
			}
		}
	}
	res, err := Evaluate(q, reduced)
	if err != nil {
		return nil, err
	}
	// Report provenance in db's IDs, like Evaluate over db would.
	for i, id := range res.tids {
		res.tids[i], _ = db.ID(reduced.ByID(id))
	}
	res.DB = db
	return res, nil
}

// matchesAtom checks per-atom selection conditions against one tuple.
func matchesAtom(a Atom, t relation.Tuple) bool {
	seen := make(map[string]relation.Value)
	for p, term := range a.Terms {
		if !term.IsVar() {
			if term.Const != t[p] {
				return false
			}
			continue
		}
		if v, ok := seen[term.Var]; ok {
			if v != t[p] {
				return false
			}
		} else {
			seen[term.Var] = t[p]
		}
	}
	return true
}

// semiJoin keeps the rows of (aKeep, keep) that agree with some row of
// (aProbe, probe) on their shared variables.
func semiJoin(aKeep Atom, keep []relation.Tuple, aProbe Atom, probe []relation.Tuple) []relation.Tuple {
	shared := sharedVars(aKeep, aProbe)
	if len(shared) == 0 {
		if len(probe) == 0 {
			return nil
		}
		return keep
	}
	probeKeys := make(map[string]bool, len(probe))
	for _, t := range probe {
		probeKeys[projectVars(aProbe, t, shared).Encode()] = true
	}
	var out []relation.Tuple
	for _, t := range keep {
		if probeKeys[projectVars(aKeep, t, shared).Encode()] {
			out = append(out, t)
		}
	}
	return out
}

// sharedVars returns the sorted variables common to both atoms.
func sharedVars(a, b Atom) []string {
	in := make(map[string]bool)
	for _, v := range a.Vars() {
		in[v] = true
	}
	var out []string
	for _, v := range b.Vars() {
		if in[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// projectVars extracts the values of the given variables from an atom's
// matched tuple (first occurrence of each variable).
func projectVars(a Atom, t relation.Tuple, vars []string) relation.Tuple {
	pos := make(map[string]int, len(a.Terms))
	for p := len(a.Terms) - 1; p >= 0; p-- {
		if a.Terms[p].IsVar() {
			pos[a.Terms[p].Var] = p
		}
	}
	out := make(relation.Tuple, len(vars))
	for i, v := range vars {
		out[i] = t[pos[v]]
	}
	return out
}
