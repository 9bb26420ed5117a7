package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"delprop/internal/relation"
	"delprop/internal/view"
)

// ErrNotPivotForest is returned when the instance lacks the structure
// Algorithm 4 needs: per connected component of the data dual graph, a
// pivot tuple from which every view tuple is a path (Section IV.E).
var ErrNotPivotForest = errors.New("core: instance is not a pivot forest")

// pivotNode is one base tuple in the data dual forest.
type pivotNode struct {
	id       relation.TID
	parent   int32 // -1 for a pivot
	children []int32
}

// pivotLayout is the delta-independent part of the data dual forest of
// Section IV.E: base tuples as nodes, each view tuple a root-to-node path
// in some tree. A node's parent precedes it in nodes.
type pivotLayout struct {
	nodes []pivotNode
	roots []int32
	// end[ref] is the node where the view tuple's path ends.
	end []int32
}

// PivotForest is the data dual forest annotated for one request: the
// preserved weight and the requested view tuples ending at every node.
type PivotForest struct {
	*pivotLayout
	// preservedWeight[n] is the total weight of preserved view tuples
	// whose join path ends at node n.
	preservedWeight []float64
	// deltaEndpoints[n] counts requested view tuples ending at node n.
	deltaEndpoints []int
	// hasDelta marks subtrees worth solving.
	hasDelta []bool
}

// Size returns the number of nodes (base tuples appearing in views).
func (f *PivotForest) Size() int { return len(f.nodes) }

// BuildPivotForest detects the pivot-forest structure, or returns
// ErrNotPivotForest, and annotates it with the problem's request and
// weights. The structure depends only on the views, so it is detected
// once per skeleton and shared by every Specialize derivative.
func BuildPivotForest(p *Problem) (*PivotForest, error) {
	if err := requireKeyPreserving(p, "dp-tree"); err != nil {
		return nil, err
	}
	layout, err := p.pivotLayout()
	if err != nil {
		return nil, err
	}
	f := &PivotForest{
		pivotLayout:     layout,
		preservedWeight: make([]float64, len(layout.nodes)),
		deltaEndpoints:  make([]int, len(layout.nodes)),
		hasDelta:        make([]bool, len(layout.nodes)),
	}
	p.requested()
	for ref, n := range layout.end {
		if p.Delta.Has(ref) {
			f.deltaEndpoints[n]++
		} else {
			f.preservedWeight[n] += p.weight(ref)
		}
	}
	for n := len(layout.nodes) - 1; n >= 0; n-- {
		if f.deltaEndpoints[n] > 0 {
			f.hasDelta[n] = true
		}
		if par := layout.nodes[n].parent; par >= 0 && f.hasDelta[n] {
			f.hasDelta[par] = true
		}
	}
	return f, nil
}

// pivotLayout returns the skeleton's memoized forest layout.
func (p *Problem) pivotLayout() (*pivotLayout, error) {
	s := p.skeleton()
	s.forestOnce.Do(func() { s.forest, s.forestErr = buildPivotLayout(p) })
	return s.forest, s.forestErr
}

// buildPivotLayout follows the definition of Section IV.E directly:
// within each connected component of the data dual graph, a tuple's
// ancestors must be exactly the tuples present in every derivation that
// contains it (all view tuples are root paths, so everything above a
// tuple co-occurs with it). Each derivation is therefore laid out by
// ascending ancestor-set size and merged into a tuple tree, rejecting the
// instance as soon as a tuple would need two parents or the containment
// order breaks.
func buildPivotLayout(p *Problem) (*pivotLayout, error) {
	for _, v := range p.Views {
		for _, ans := range v.Result.Answers() {
			if len(ans.Derivations) != 1 {
				return nil, fmt.Errorf("%w: view tuple with %d derivations", ErrNotPivotForest, len(ans.Derivations))
			}
			if len(ans.Derivations[0]) == 0 {
				return nil, fmt.Errorf("%w: view tuple with empty derivation", ErrNotPivotForest)
			}
		}
	}
	// pathOf returns a view tuple's (unique) derivation as a tuple set.
	pathOf := func(ref int) []relation.TID { return view.Distinct(p.answer(ref).Derivations[0]) }
	nRefs := p.TotalViewSize()
	// Union-find over tuple IDs to find components.
	nt := p.DB.NumIDs()
	parent := make([]int32, nt)
	for i := range parent {
		parent[i] = -1
	}
	var find func(x relation.TID) relation.TID
	find = func(x relation.TID) relation.TID {
		if relation.TID(parent[x]) == x {
			return x
		}
		root := find(relation.TID(parent[x]))
		parent[x] = int32(root)
		return root
	}
	for ref := range nRefs {
		path := pathOf(ref)
		for _, t := range path {
			if parent[t] < 0 {
				parent[t] = int32(t)
			}
			parent[find(t)] = int32(find(path[0]))
		}
	}
	// Group refs by component, in first-seen order, and order the
	// components by their first tuple in canonical order, so the forest
	// layout — and with it the solution's deletion order — does not depend
	// on the union order.
	rank := p.ranks()
	compOf := make([]int32, nt)
	var comps [][]int
	var first []int32
	for ref := range nRefs {
		path := pathOf(ref)
		root := find(path[0])
		if compOf[root] == 0 {
			comps = append(comps, nil)
			first = append(first, -1)
			compOf[root] = int32(len(comps))
		}
		c := compOf[root] - 1
		comps[c] = append(comps[c], ref)
		for _, t := range path {
			if first[c] < 0 || rank[t] < first[c] {
				first[c] = rank[t]
			}
		}
	}
	order := make([]int, len(comps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return first[order[a]] < first[order[b]] })

	l := &pivotLayout{end: make([]int32, nRefs)}
	nodeOf := make([]int32, nt)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	for _, c := range order {
		paths, err := layoutComponent(p, pathOf, comps[c])
		if err != nil {
			return nil, err
		}
		if err := l.merge(p, nodeOf, comps[c], paths); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// layoutComponent orders every derivation of the component as a root path
// using ancestor sets: anc(t) = ∩{derivations containing t}. In a pivot
// forest anc(t) is exactly the path from the pivot to t, so sorting each
// derivation by |anc| (ties broken by canonical tuple order, which is
// safe because tuples with identical derivation membership have identical
// kill-sets) yields a consistent layout; the containment of each path
// element in the next one's ancestor set is verified.
func layoutComponent(p *Problem, pathOf func(int) []relation.TID, idxs []int) ([][]relation.TID, error) {
	// anc(t) = the tuples present in every derivation containing t (the
	// inverted index lists them), computed on first use: an instance
	// that is not a pivot forest usually fails on its first paths.
	anc := make(map[relation.TID][]relation.TID)
	ancOf := func(t relation.TID) []relation.TID {
		if a, ok := anc[t]; ok {
			return a
		}
		occ := p.Inverted().Occurrences(t)
		var in []relation.TID
		for _, cand := range pathOf(int(occ[0].Ref)) {
			inAll := true
			for _, o := range occ[1:] {
				if !slices.Contains(pathOf(int(o.Ref)), cand) {
					inAll = false
					break
				}
			}
			if inAll {
				in = append(in, cand)
			}
		}
		anc[t] = in
		return in
	}
	rank := p.ranks()
	var out [][]relation.TID
	for _, ref := range idxs {
		path := append([]relation.TID(nil), pathOf(ref)...)
		sort.Slice(path, func(a, b int) bool {
			sa, sb := len(ancOf(path[a])), len(ancOf(path[b]))
			if sa != sb {
				return sa < sb
			}
			return rank[path[a]] < rank[path[b]]
		})
		// Verify the root-path property: every element lies in the
		// ancestor set of its successor.
		for j := 0; j+1 < len(path); j++ {
			if !slices.Contains(ancOf(path[j+1]), path[j]) {
				return nil, fmt.Errorf("%w: tuples %s and %s are not ancestor-ordered", ErrNotPivotForest, p.DB.ByID(path[j]), p.DB.ByID(path[j+1]))
			}
		}
		out = append(out, path)
	}
	return out, nil
}

// merge merges one component's root paths into the layout, requiring a
// unique parent per tuple and a common root. nodeOf maps tuple IDs to
// nodes.
func (l *pivotLayout) merge(p *Problem, nodeOf []int32, refs []int, paths [][]relation.TID) error {
	node := func(t relation.TID) int32 {
		if n := nodeOf[t]; n >= 0 {
			return n
		}
		n := int32(len(l.nodes))
		l.nodes = append(l.nodes, pivotNode{id: t, parent: -1})
		nodeOf[t] = n
		return n
	}
	root := int32(-1)
	for i, path := range paths {
		prev := node(path[0])
		if root < 0 {
			root = prev
		}
		if prev != root {
			return fmt.Errorf("%w: component has no common pivot tuple (paths start at %s and %s)", ErrNotPivotForest, p.DB.ByID(l.nodes[root].id), p.DB.ByID(l.nodes[prev].id))
		}
		for _, t := range path[1:] {
			n := node(t)
			if l.nodes[n].parent < 0 && n != root {
				l.nodes[n].parent = prev
				l.nodes[prev].children = append(l.nodes[prev].children, n)
			} else if l.nodes[n].parent != prev {
				return fmt.Errorf("%w: tuple %s has two parents", ErrNotPivotForest, p.DB.ByID(t))
			}
			prev = n
		}
		l.end[refs[i]] = prev
	}
	if l.nodes[root].parent >= 0 {
		return fmt.Errorf("%w: pivot has a parent", ErrNotPivotForest)
	}
	l.roots = append(l.roots, root)
	return nil
}

// DPTree implements Algorithm 4 (DPTreeVSE): exact polynomial dynamic
// programming over the pivot forest. For every node, either delete it
// (killing every view tuple whose path enters its subtree, at the cost of
// the preserved weight inside) or keep it and recurse — with the standard
// objective a kept node must not host a requested endpoint; with the
// balanced objective it may, paying 1 per surviving requested tuple.
type DPTree struct {
	// Balanced switches to the balanced objective (Section III).
	Balanced bool
}

// Name implements Solver.
func (d *DPTree) Name() string {
	if d.Balanced {
		return "dp-tree-balanced"
	}
	return "dp-tree"
}

// Solve implements Solver. Returns ErrNotPivotForest when the structure is
// absent. The DP is polynomial; the checkpoint granularity is one tree per
// poll (forest detection dominates the cost anyway).
func (d *DPTree) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	st.Checkpoint()
	if err := checkCtx(ctx, d.Name(), nil); err != nil {
		return nil, err
	}
	forest, err := BuildPivotForest(p)
	if err != nil {
		return nil, err
	}
	// The DP visits every forest node exactly once.
	st.AddNodes(int64(forest.Size()))
	var del []relation.TID
	for _, root := range forest.roots {
		st.Checkpoint()
		if err := checkCtx(ctx, d.Name(), nil); err != nil {
			return nil, err
		}
		if !forest.hasDelta[root] {
			continue
		}
		del = d.solveTree(forest, root, del)
	}
	return p.solution(del), nil
}

// solveTree runs the DP on the tree under root and appends the chosen
// deletions to del.
func (d *DPTree) solveTree(f *PivotForest, root int32, del []relation.TID) []relation.TID {
	type result struct {
		cost   float64
		delete bool
	}
	memo := make(map[int32]*result)
	// subtreeWeight is the preserved endpoint weight of the subtree.
	var subtreeWeight func(n int32) float64
	subtreeWeight = func(n int32) float64 {
		w := f.preservedWeight[n]
		for _, c := range f.nodes[n].children {
			w += subtreeWeight(c)
		}
		return w
	}
	var solve func(n int32) float64
	solve = func(n int32) float64 {
		if r, ok := memo[n]; ok {
			return r.cost
		}
		deleteCost := subtreeWeight(n)
		keepCost := 0.0
		if f.deltaEndpoints[n] > 0 {
			if d.Balanced {
				keepCost += float64(f.deltaEndpoints[n])
			} else {
				keepCost = math.Inf(1)
			}
		}
		if !math.IsInf(keepCost, 1) {
			for _, c := range f.nodes[n].children {
				keepCost += solve(c)
			}
		}
		r := &result{cost: keepCost}
		if deleteCost < keepCost || math.IsInf(keepCost, 1) {
			r = &result{cost: deleteCost, delete: true}
		}
		memo[n] = r
		return r.cost
	}
	solve(root)
	var collect func(n int32)
	collect = func(n int32) {
		if memo[n].delete {
			del = append(del, f.nodes[n].id)
			return
		}
		for _, c := range f.nodes[n].children {
			collect(c)
		}
	}
	collect(root)
	return del
}

// IsPivotForest reports whether Algorithm 4 applies to the problem. The
// verdict is memoized per skeleton.
func IsPivotForest(p *Problem) bool {
	if !p.IsKeyPreserving() {
		return false
	}
	_, err := p.pivotLayout()
	return err == nil
}
