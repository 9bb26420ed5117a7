// Package workload provides the deterministic synthetic workload
// generators behind the experiments: the paper's Fig. 1 bibliography
// instance and a scalable variant, star-join workloads for the general
// multi-query case, chain workloads whose dual hypergraphs are hypertrees
// (the paper's forest case), hierarchical workloads with pivot tuples (the
// Algorithm 4 case), and seeded deletion-request samplers. Everything is
// driven by explicit seeds; no generator touches wall-clock time.
package workload

import (
	"fmt"
	"math/rand"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
)

// Workload bundles a generated database with its queries.
type Workload struct {
	DB      *relation.Instance
	Queries []*cq.Query
}

// Fig1 reproduces the paper's Fig. 1 instance exactly: relations
// T1(AuName, Journal) and T2(Journal, Topic, Papers) with seven tuples, and
// the two queries Q3 (non-key-preserving) and Q4 (key-preserving).
func Fig1() *Workload {
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
	return &Workload{
		DB: db,
		Queries: []*cq.Query{
			cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
			cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)"),
		},
	}
}

// BibliographyConfig scales the Fig. 1 scenario.
type BibliographyConfig struct {
	Seed     int64
	Authors  int
	Journals int
	Topics   int
	// PapersPerAuthor is how many journals each author publishes in.
	PapersPerAuthor int
	// TopicsPerJournal is how many topics each journal covers.
	TopicsPerJournal int
}

// Bibliography generates a scaled bibliography instance with the
// key-preserving query Q(author, journal, topic).
func Bibliography(cfg BibliographyConfig) *Workload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := relation.NewInstance(
		relation.MustSchema("Author", []string{"AuName", "Journal"}, []int{0, 1}),
		relation.MustSchema("Journal", []string{"Journal", "Topic", "Papers"}, []int{0, 1}),
	)
	for a := 0; a < cfg.Authors; a++ {
		seen := map[int]bool{}
		for k := 0; k < cfg.PapersPerAuthor; k++ {
			j := rng.Intn(cfg.Journals)
			if seen[j] {
				continue
			}
			seen[j] = true
			db.MustInsert("Author", fmt.Sprintf("a%d", a), fmt.Sprintf("j%d", j))
		}
	}
	for j := 0; j < cfg.Journals; j++ {
		seen := map[int]bool{}
		for k := 0; k < cfg.TopicsPerJournal; k++ {
			tp := rng.Intn(cfg.Topics)
			if seen[tp] {
				continue
			}
			seen[tp] = true
			db.MustInsert("Journal", fmt.Sprintf("j%d", j), fmt.Sprintf("t%d", tp), fmt.Sprintf("%d", 10+rng.Intn(90)))
		}
	}
	return &Workload{
		DB: db,
		Queries: []*cq.Query{
			cq.MustParse("Pub(x, y, z) :- Author(x, y), Journal(y, z, w)"),
		},
	}
}

// StarConfig drives the general-case multi-query generator: K satellite
// relations S1..SK sharing a hub column, and queries joining random
// subsets of them. All queries are project-free, hence key-preserving.
// Dual hypergraphs are arbitrary (usually not hypertrees).
type StarConfig struct {
	Seed int64
	// Relations is K, the number of satellite relations.
	Relations int
	// HubValues is the domain size of the shared join column.
	HubValues int
	// RowsPerRelation is the number of tuples per satellite.
	RowsPerRelation int
	// Queries is the number of generated queries.
	Queries int
	// AtomsPerQuery is the body size of each query (capped at Relations).
	AtomsPerQuery int
}

// Star generates a star workload. Each satellite Si(hub, val) is keyed on
// both columns; each query joins AtomsPerQuery distinct satellites on the
// hub and exposes every variable.
func Star(cfg StarConfig) *Workload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	schemas := make([]*relation.Schema, cfg.Relations)
	for i := range schemas {
		schemas[i] = relation.MustSchema(fmt.Sprintf("S%d", i), []string{"hub", "val"}, []int{0, 1})
	}
	db := relation.NewInstance(schemas...)
	for i := 0; i < cfg.Relations; i++ {
		inserted := 0
		for attempt := 0; inserted < cfg.RowsPerRelation && attempt < cfg.RowsPerRelation*10; attempt++ {
			h := rng.Intn(cfg.HubValues)
			v := rng.Intn(cfg.RowsPerRelation * 2)
			t := relation.Tuple{relation.Value(fmt.Sprintf("h%d", h)), relation.Value(fmt.Sprintf("v%d", v))}
			if err := db.Insert(fmt.Sprintf("S%d", i), t); err == nil {
				inserted++
			}
		}
	}
	k := cfg.AtomsPerQuery
	if k > cfg.Relations {
		k = cfg.Relations
	}
	if k < 1 {
		k = 1
	}
	var queries []*cq.Query
	for qi := 0; qi < cfg.Queries; qi++ {
		rels := rng.Perm(cfg.Relations)[:k]
		head := []cq.Term{cq.V("x")}
		var body []cq.Atom
		for j, ri := range rels {
			y := fmt.Sprintf("y%d", j)
			head = append(head, cq.V(y))
			body = append(body, cq.Atom{
				Relation: fmt.Sprintf("S%d", ri),
				Terms:    []cq.Term{cq.V("x"), cq.V(y)},
			})
		}
		queries = append(queries, &cq.Query{Name: fmt.Sprintf("Q%d", qi), Head: head, Body: body})
	}
	return &Workload{DB: db, Queries: queries}
}

// ChainConfig drives the forest-case generator: a chain of relations
// R0(c0,c1), R1(c1,c2), ... and queries over contiguous intervals, whose
// dual hypergraph (intervals of a path) is always a hypertree.
type ChainConfig struct {
	Seed int64
	// Length is the number of chain relations.
	Length int
	// Domain is the value-domain size per column.
	Domain int
	// RowsPerRelation is tuples per relation.
	RowsPerRelation int
	// Queries is the number of interval queries.
	Queries int
	// MaxSpan caps the interval width (min 1).
	MaxSpan int
}

// Chain generates a chain workload. Relation Ri(ci, ci+1) is keyed on both
// columns; each query spans a random contiguous interval of the chain and
// exposes every variable, so queries are project-free and the query set's
// dual hypergraph is a hypertree (the forest case of Section IV.B).
func Chain(cfg ChainConfig) *Workload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	schemas := make([]*relation.Schema, cfg.Length)
	for i := range schemas {
		schemas[i] = relation.MustSchema(fmt.Sprintf("R%d", i), []string{fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)}, []int{0, 1})
	}
	db := relation.NewInstance(schemas...)
	for i := 0; i < cfg.Length; i++ {
		inserted := 0
		for attempt := 0; inserted < cfg.RowsPerRelation && attempt < cfg.RowsPerRelation*10; attempt++ {
			a := rng.Intn(cfg.Domain)
			b := rng.Intn(cfg.Domain)
			t := relation.Tuple{relation.Value(fmt.Sprintf("d%d", a)), relation.Value(fmt.Sprintf("d%d", b))}
			if err := db.Insert(fmt.Sprintf("R%d", i), t); err == nil {
				inserted++
			}
		}
	}
	maxSpan := cfg.MaxSpan
	if maxSpan < 1 {
		maxSpan = 1
	}
	if maxSpan > cfg.Length {
		maxSpan = cfg.Length
	}
	var queries []*cq.Query
	for qi := 0; qi < cfg.Queries; qi++ {
		span := 1 + rng.Intn(maxSpan)
		start := rng.Intn(cfg.Length - span + 1)
		head := []cq.Term{cq.V(fmt.Sprintf("x%d", start))}
		var body []cq.Atom
		for i := start; i < start+span; i++ {
			head = append(head, cq.V(fmt.Sprintf("x%d", i+1)))
			body = append(body, cq.Atom{
				Relation: fmt.Sprintf("R%d", i),
				Terms:    []cq.Term{cq.V(fmt.Sprintf("x%d", i)), cq.V(fmt.Sprintf("x%d", i+1))},
			})
		}
		queries = append(queries, &cq.Query{Name: fmt.Sprintf("Q%d", qi), Head: head, Body: body})
	}
	return &Workload{DB: db, Queries: queries}
}

// PivotConfig drives the pivot-forest generator of Section IV.E: a strict
// hierarchy Root → Child → Grand whose data dual graph is a forest of
// trees rooted at Root tuples (the pivots).
type PivotConfig struct {
	Seed int64
	// Roots is the number of trees (components).
	Roots int
	// ChildrenPerRoot and GrandPerChild shape each tree.
	ChildrenPerRoot int
	GrandPerChild   int
	// Depth3 adds a fourth level (GreatGrand) when true.
	Depth3 bool
}

// Pivot generates a hierarchical workload with queries
//
//	QC(r, c)       :- Root(r), Child(r, c)
//	QG(r, c, g)    :- Root(r), Child(r, c), Grand(c, g)
//	QGG(r,c,g,h)   :- … GreatGrand(g, h)   (when Depth3)
//
// Child is keyed on the child id, Grand on the grand id, so every query is
// key-preserving and every view tuple is a root path of the tree — the
// pivot case solved exactly by Algorithm 4.
func Pivot(cfg PivotConfig) *Workload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	schemas := []*relation.Schema{
		relation.MustSchema("Root", []string{"r"}, []int{0}),
		relation.MustSchema("Child", []string{"r", "c"}, []int{1}),
		relation.MustSchema("Grand", []string{"c", "g"}, []int{1}),
	}
	if cfg.Depth3 {
		schemas = append(schemas, relation.MustSchema("GreatGrand", []string{"g", "h"}, []int{1}))
	}
	db := relation.NewInstance(schemas...)
	child, grand := 0, 0
	great := 0
	for r := 0; r < cfg.Roots; r++ {
		rid := fmt.Sprintf("r%d", r)
		db.MustInsert("Root", rid)
		nc := 1 + rng.Intn(cfg.ChildrenPerRoot)
		for i := 0; i < nc; i++ {
			cid := fmt.Sprintf("c%d", child)
			child++
			db.MustInsert("Child", rid, cid)
			ng := rng.Intn(cfg.GrandPerChild + 1)
			for j := 0; j < ng; j++ {
				gid := fmt.Sprintf("g%d", grand)
				grand++
				db.MustInsert("Grand", cid, gid)
				if cfg.Depth3 && rng.Intn(2) == 0 {
					hid := fmt.Sprintf("h%d", great)
					great++
					db.MustInsert("GreatGrand", gid, hid)
				}
			}
		}
	}
	queries := []*cq.Query{
		cq.MustParse("QC(r, c) :- Root(r), Child(r, c)"),
		cq.MustParse("QG(r, c, g) :- Root(r), Child(r, c), Grand(c, g)"),
	}
	if cfg.Depth3 {
		queries = append(queries, cq.MustParse("QGG(r, c, g, h) :- Root(r), Child(r, c), Grand(c, g), GreatGrand(g, h)"))
	}
	return &Workload{DB: db, Queries: queries}
}

// SelfJoinConfig drives the self-join generator: a single edge relation
// E(src, dst) and path queries of varying length joining E with itself.
// Project-free self-join queries are key-preserving (Section II.B), the
// fragment the paper's LOGSPACE single-query result covers.
type SelfJoinConfig struct {
	Seed int64
	// Nodes is the vertex-domain size.
	Nodes int
	// Edges is the number of edges inserted.
	Edges int
	// Queries is the number of path queries.
	Queries int
	// MaxLen caps the path length (min 1).
	MaxLen int
}

// SelfJoin generates an edge relation and project-free path queries
//
//	P(x0..xk) :- E(x0, x1), E(x1, x2), ..., E(x_{k-1}, x_k)
//
// exercising self-joins in the evaluator and solvers.
func SelfJoin(cfg SelfJoinConfig) *Workload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := relation.NewInstance(relation.MustSchema("E", []string{"src", "dst"}, []int{0, 1}))
	inserted := 0
	for attempt := 0; inserted < cfg.Edges && attempt < cfg.Edges*10; attempt++ {
		a := rng.Intn(cfg.Nodes)
		b := rng.Intn(cfg.Nodes)
		t := relation.Tuple{relation.Value(fmt.Sprintf("n%d", a)), relation.Value(fmt.Sprintf("n%d", b))}
		if err := db.Insert("E", t); err == nil {
			inserted++
		}
	}
	maxLen := cfg.MaxLen
	if maxLen < 1 {
		maxLen = 1
	}
	var queries []*cq.Query
	for qi := 0; qi < cfg.Queries; qi++ {
		k := 1 + rng.Intn(maxLen)
		head := []cq.Term{cq.V("x0")}
		var body []cq.Atom
		for i := 0; i < k; i++ {
			head = append(head, cq.V(fmt.Sprintf("x%d", i+1)))
			body = append(body, cq.Atom{
				Relation: "E",
				Terms:    []cq.Term{cq.V(fmt.Sprintf("x%d", i)), cq.V(fmt.Sprintf("x%d", i+1))},
			})
		}
		queries = append(queries, &cq.Query{Name: fmt.Sprintf("P%d", qi), Head: head, Body: body})
	}
	return &Workload{DB: db, Queries: queries}
}

// PlantedErrors marks a seeded fraction of source tuples as corrupt and
// returns them; used by the cleaning-quality experiment (E15) to measure
// how well deletion propagation recovers planted errors.
func PlantedErrors(db *relation.Instance, fraction float64, seed int64) []relation.TupleID {
	rng := rand.New(rand.NewSource(seed))
	var out []relation.TupleID
	for _, id := range db.AllTuples() {
		if rng.Float64() < fraction {
			out = append(out, id)
		}
	}
	return out
}

// SampleDeletion draws a deletion request of up to n view tuples uniformly
// from the materialized views, deterministically from the seed.
func SampleDeletion(views []*view.View, n int, seed int64) *view.Deletion {
	rng := rand.New(rand.NewSource(seed))
	total := view.TotalSize(views)
	del := view.NewDeletion()
	if total == 0 {
		return del
	}
	perm := rng.Perm(total)
	if n > total {
		n = total
	}
	for _, ref := range view.Refs(views, perm[:n]) {
		del.Add(ref)
	}
	return del
}

// SampleWeights assigns integer preservation weights in [1, maxW] to every
// preserved view tuple, deterministically from the seed. The returned map
// is keyed by view.TupleRef.Key.
func SampleWeights(views []*view.View, del *view.Deletion, maxW int, seed int64) map[string]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]float64)
	for _, v := range views {
		for pos := range v.Result.NumAnswers() {
			ref := v.Ref(pos)
			if del != nil && del.Contains(ref) {
				continue
			}
			out[ref.Key()] = float64(1 + rng.Intn(maxW))
		}
	}
	return out
}
