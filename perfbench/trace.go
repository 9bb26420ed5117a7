package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/server"
	"delprop/internal/session"
	"delprop/internal/textio"
	"delprop/internal/view"
)

// span is one traced call into a layer. Spans of one request share Req;
// Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name       string `json:"name"`
	StartNs    int64  `json:"startNs"` // since the tracer's origin
	EndNs      int64  `json:"endNs"`
	Parent     int    `json:"parent"`
	Req        int    `json:"req"`
	Family     string `json:"family"`
	AllocBytes uint64 `json:"allocBytes"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced replay runs the same code.
type tracer struct {
	origin time.Time
	spans  []span
	alloc  []metrics.Sample
	req    int // id of the open request; ids count up from 0
	family string
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Req: t.req, Family: t.family,
		AllocBytes: t.allocated(),
		StartNs:    int64(time.Since(t.origin)),
	})
	return len(t.spans) - 1
}

// end closes span i, turning its allocation mark into a delta.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.EndNs = int64(time.Since(t.origin))
	s.AllocBytes = t.allocated() - s.AllocBytes
}

// startRequest opens the root span of a new request id.
func (t *tracer) startRequest(name, family string) int {
	if t == nil {
		return -1
	}
	if len(t.spans) > 0 {
		t.req++
	}
	t.family = family
	return t.begin(name, -1)
}

// solvePhases runs classify, solve and evaluate — the phases cold and
// warm share — under the server's span names. bound computes the
// evaluate phase's lower-bound certificate.
func solvePhases(t *tracer, root int, p *core.Problem, bound func(*core.Problem) (float64, error)) (answer, core.StatsSnapshot, error) {
	sp := t.begin("classify", root)
	solver, err := server.PickSolver("auto", p)
	t.end(sp)
	if err != nil {
		return answer{}, core.StatsSnapshot{}, err
	}
	sp = t.begin("solve", root)
	ctx, stats := core.WithStats(context.Background())
	sol, err := solver.Solve(ctx, p)
	t.end(sp)
	if err != nil {
		return answer{}, core.StatsSnapshot{}, err
	}
	sp = t.begin("evaluate", root)
	rep := p.Evaluate(sol)
	if p.IsKeyPreserving() {
		db := t.begin("dual_bound", sp)
		_, err = bound(p)
		t.end(db)
	}
	t.end(sp)
	return solutionAnswer(solver.Name(), sol, rep), stats.Snapshot(), err
}

// replayCold runs one request through the public functions behind a
// cold POST /solve: parse, views, classify, solve, evaluate.
func replayCold(t *tracer, r request) (answer, core.StatsSnapshot, error) {
	root := t.startRequest("request", r.inst.family)
	defer t.end(root)
	sp := t.begin("parse", root)
	db, queries, err := parseInstance(r.inst.database, r.inst.queries)
	var delta *view.Deletion
	if err == nil {
		delta, err = textio.ParseDeletions(r.inst.deletions[r.del], queries)
	}
	t.end(sp)
	if err != nil {
		return answer{}, core.StatsSnapshot{}, err
	}
	sp = t.begin("views", root)
	p, err := core.NewProblem(db, queries, delta)
	t.end(sp)
	if err != nil {
		return answer{}, core.StatsSnapshot{}, err
	}
	return solvePhases(t, root, p, core.DualBound)
}

// replayWarm runs one request through the public functions behind POST
// /sessions/{id}/solve: parse the deletions, specialize the session's
// skeleton, classify, solve, evaluate with the certificate cache.
func replayWarm(t *tracer, r request, e *session.Entry) (answer, core.StatsSnapshot, error) {
	root := t.startRequest("request", r.inst.family)
	defer t.end(root)
	skel := e.Problem()
	sp := t.begin("parse", root)
	delta, err := textio.ParseDeletions(r.inst.deletions[r.del], skel.Queries)
	t.end(sp)
	if err != nil {
		return answer{}, core.StatsSnapshot{}, err
	}
	sp = t.begin("views", root)
	p, err := skel.Specialize(delta)
	t.end(sp)
	if err != nil {
		return answer{}, core.StatsSnapshot{}, err
	}
	return solvePhases(t, root, p, func(p *core.Problem) (float64, error) {
		lb, _, err := e.DualBound(p, session.DefaultMaxBoundCerts)
		return lb, err
	})
}

// registerAll registers every instance in an in-process session
// registry, tracing each registration as a "session.register" span over
// its parse and views phases.
func registerAll(t *tracer, insts []*instance) (map[*instance]*session.Entry, error) {
	reg := session.NewRegistry(session.Config{MaxEntries: len(insts)})
	out := make(map[*instance]*session.Entry, len(insts))
	for _, inst := range insts {
		root := t.startRequest("session.register", inst.family)
		fp := session.Fingerprint(inst.database, inst.queries)
		e, _, err := reg.Register(context.Background(), fp, "", func() (*core.Problem, error) {
			sp := t.begin("parse", root)
			db, queries, err := parseInstance(inst.database, inst.queries)
			t.end(sp)
			if err != nil {
				return nil, err
			}
			sp = t.begin("views", root)
			defer t.end(sp)
			return core.NewProblem(db, queries, nil)
		})
		t.end(root)
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", inst.family, err)
		}
		out[inst] = e
	}
	return out, nil
}

// layerProbe sums, over the probed instances, the cost of the layers
// core.NewProblem runs internally, each timed by calling its public
// function directly.
type layerProbe struct {
	tuples        int
	encodeMs      float64
	evaluateMs    float64 // Σ over the queries
	evaluateAlloc float64 // bytes, Σ over the queries
	answers       int
	derivations   int
	materializeMs float64
	indexMs       float64
	maintBuildMs  float64
	maintCloneMs  float64
}

// probeLayers times relation encoding, per-query evaluation, view
// materialization, the inverted index and the incremental maintainer on
// one instance, each under its own span, and adds the figures to lp.
func probeLayers(t *tracer, inst *instance, lp *layerProbe) error {
	db, queries, err := parseInstance(inst.database, inst.queries)
	if err != nil {
		return err
	}
	root := t.startRequest("probe", inst.family)
	defer t.end(root)
	// timed runs f under a span and returns the span's milliseconds.
	timed := func(name string, f func()) float64 {
		sp := t.begin(name, root)
		f()
		t.end(sp)
		return float64(t.spans[sp].EndNs-t.spans[sp].StartNs) / 1e6
	}

	lp.encodeMs += timed("relation.encode", func() {
		for _, name := range db.RelationNames() {
			for _, tup := range db.Relation(name).Tuples() {
				_ = tup.Encode()
				lp.tuples++
			}
		}
	})
	for _, q := range queries {
		var res *cq.Result
		lp.evaluateMs += timed("cq.evaluate", func() { res, err = cq.Evaluate(q, db) })
		if err != nil {
			return err
		}
		lp.evaluateAlloc += float64(t.spans[len(t.spans)-1].AllocBytes)
		for _, ans := range res.Answers() {
			lp.answers++
			lp.derivations += len(ans.Derivations)
		}
	}
	var views []*view.View
	lp.materializeMs += timed("view.materialize", func() { views, err = view.Materialize(queries, db) })
	if err != nil {
		return err
	}
	lp.indexMs += timed("view.inverted_index", func() { view.BuildInvertedIndex(views) })
	var m *view.Maintainer
	lp.maintBuildMs += timed("view.maintainer_build", func() { m = view.NewMaintainer(views) })
	lp.maintCloneMs += timed("view.maintainer_clone", func() { m.Clone() })
	return nil
}

// tracedReplay replays the rotation in-process with one client. Every
// request runs twice, once traced and once untraced, alternating which
// goes first so neither side always meets the colder caches; whole
// rotations repeat until budget has passed. Then the layer probes run.
// It reports the span-derived per-layer metrics and returns every span.
func tracedReplay(rep *report, opt options, insts []*instance, rot []request, budget time.Duration) ([]span, error) {
	layers := allPerLayer()
	t := newTracer()
	var entries map[*instance]*session.Entry
	if opt.workload == warm {
		var err error
		if entries, err = registerAll(t, insts); err != nil {
			return nil, err
		}
	}
	firstTraced := len(t.spans)
	var tracedTime, untracedTime time.Duration
	var stats []core.StatsSnapshot
	rounds := 0
	for start := time.Now(); rounds == 0 || time.Since(start) < budget; rounds++ {
		for i, r := range rot {
			for pass := 0; pass < 2; pass++ {
				traced := (i+pass)%2 == 0
				var tt *tracer
				if traced {
					tt = t
				}
				began := time.Now()
				var got answer
				var st core.StatsSnapshot
				var err error
				if entries != nil {
					got, st, err = replayWarm(tt, r, entries[r.inst])
				} else {
					got, st, err = replayCold(tt, r)
				}
				if traced {
					tracedTime += time.Since(began)
					stats = append(stats, st)
				} else {
					untracedTime += time.Since(began)
				}
				if err != nil {
					return nil, fmt.Errorf("replay %s: %w", r.inst.family, err)
				}
				rep.check(!got.equal(r.want()), fmt.Sprintf("in-process %s: got %v, want %v", r.inst.family, got, r.want()))
			}
		}
	}
	solves := float64(rounds * len(rot))
	rep.set(layers, "trace.solves_per_s", solves/tracedTime.Seconds())
	rep.set(layers, "trace.untraced_solves_per_s", solves/untracedTime.Seconds())
	rep.set(layers, "trace.overhead_share", tracedTime.Seconds()/untracedTime.Seconds()-1)

	phaseMs, phaseAlloc, requests := map[string]float64{}, map[string]float64{}, 0
	for _, s := range t.spans[firstTraced:] {
		if s.Name == "request" {
			requests++
			continue
		}
		phaseMs[s.Name] += float64(s.EndNs-s.StartNs) / 1e6
		phaseAlloc[s.Name] += float64(s.AllocBytes)
	}
	n := float64(requests)
	for _, ph := range []string{"parse", "views", "classify", "solve", "evaluate"} {
		rep.set(layers, ph+".ms", phaseMs[ph]/n)
		rep.set(layers, ph+".alloc_kb", phaseAlloc[ph]/1e3/n)
	}
	rep.set(layers, "evaluate.dual_bound_ms", phaseMs["dual_bound"]/n)
	var nodes, checkpoints float64
	for _, st := range stats {
		nodes += float64(st.NodesExpanded)
		checkpoints += float64(st.Checkpoints)
	}
	rep.set(layers, "solve.nodes_expanded", nodes/float64(len(stats)))
	rep.set(layers, "solve.checkpoints", checkpoints/float64(len(stats)))

	var registerMs []float64
	for _, s := range t.spans[:firstTraced] {
		if s.Name == "session.register" {
			registerMs = append(registerMs, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	rep.set(layers, "session.register_ms", mean(registerMs))

	// Every instance carries the same number of rotation requests, so the
	// mean over instances is the mean per request.
	var sum layerProbe
	var base, views float64
	famViews, famBase := map[string]float64{}, map[string]float64{}
	for _, inst := range insts {
		if err := probeLayers(t, inst, &sum); err != nil {
			return nil, fmt.Errorf("probe %s: %w", inst.family, err)
		}
		base += float64(inst.baseTuples)
		views += float64(inst.viewTuples)
		famBase[inst.family] += float64(inst.baseTuples)
		famViews[inst.family] += float64(inst.viewTuples)
	}
	k := float64(len(insts))
	rep.set(layers, "relation.tuples", float64(sum.tuples)/k)
	rep.set(layers, "relation.encode_ns", sum.encodeMs*1e6/float64(sum.tuples))
	rep.set(layers, "cq.evaluate_ms", sum.evaluateMs/k)
	rep.set(layers, "cq.evaluate_alloc_kb", sum.evaluateAlloc/1e3/k)
	rep.set(layers, "cq.answers", float64(sum.answers)/k)
	rep.set(layers, "cq.derivations", float64(sum.derivations)/k)
	rep.set(layers, "view.materialize_ms", sum.materializeMs/k)
	rep.set(layers, "view.inverted_index_ms", sum.indexMs/k)
	rep.set(layers, "view.maintainer_build_ms", sum.maintBuildMs/k)
	rep.set(layers, "view.maintainer_clone_ms", sum.maintCloneMs/k)
	rep.set(layers, "view.view_tuples", views/k)
	rep.set(layers, "view.fanout", views/base)
	for _, f := range familyNames {
		rep.set(layers, "family."+f+".view_tuples", famViews[f]/instancesPerFamily)
		rep.set(layers, "family."+f+".fanout", famViews[f]/famBase[f])
	}
	return t.spans, nil
}
