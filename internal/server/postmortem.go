package server

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"delprop/internal/admission"
	"delprop/internal/core"
	"delprop/internal/telemetry"
)

// Postmortem flight recorder. When something goes wrong — an SLO breach,
// a hard solve failure, or a solve over the latency SLO — the server
// freezes a bounded-ring bundle of everything an incident review needs:
// the request's trace, its final core.Stats snapshot, the correlated
// event history from the bus's journal, the admission decision, the breaker
// states and the process's goroutine/heap counts at capture time. GET
// /debug/postmortems lists the bundles newest first; /debug/postmortems/
// {id} serves one in full. The answer to "why was that solve slow at
// 3am" survives until the ring wraps, not until the logs rotate.

// Postmortem capture kinds.
const (
	postmortemSLOBreach  = "slo_breach"
	postmortemSolveError = "solve_error"
	postmortemSlowSolve  = "slow_solve"
)

// AdmissionJSON is the admission outcome frozen into a bundle.
type AdmissionJSON struct {
	Tenant   string `json:"tenant,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Rule     string `json:"rule,omitempty"`
}

// Postmortem is one captured bundle.
type Postmortem struct {
	ID         string               `json:"id"`
	Kind       string               `json:"kind"`
	At         time.Time            `json:"at"`
	RequestID  string               `json:"requestId,omitempty"`
	TraceID    uint64               `json:"traceId,omitempty"`
	Solver     string               `json:"solver,omitempty"`
	Outcome    string               `json:"outcome,omitempty"`
	DurationMs float64              `json:"durationMs,omitempty"`
	Breach     *telemetry.SLOBreach `json:"breach,omitempty"`
	Admission  *AdmissionJSON       `json:"admission,omitempty"`
	// Trace is the correlated solve trace (live-form if the capture beat
	// tr.Finish; nil when the trace already left the ring).
	Trace *telemetry.TraceJSON `json:"trace,omitempty"`
	Stats *core.StatsSnapshot  `json:"stats,omitempty"`
	// Events is the journal's history for the request (or, for breaches
	// with no correlated solve, the journal tail at capture time).
	Events         []telemetry.Event         `json:"events,omitempty"`
	Breakers       []admission.BreakerStatus `json:"breakers,omitempty"`
	Goroutines     int                       `json:"goroutines"`
	HeapInuseBytes uint64                    `json:"heapInuseBytes"`
}

// PostmortemSummary is one ring entry in the /debug/postmortems listing.
type PostmortemSummary struct {
	ID         string    `json:"id"`
	Kind       string    `json:"kind"`
	At         time.Time `json:"at"`
	RequestID  string    `json:"requestId,omitempty"`
	Solver     string    `json:"solver,omitempty"`
	Tenant     string    `json:"tenant,omitempty"`
	Outcome    string    `json:"outcome,omitempty"`
	Rule       string    `json:"rule,omitempty"`
	DurationMs float64   `json:"durationMs,omitempty"`
}

func (p *Postmortem) summary() PostmortemSummary {
	s := PostmortemSummary{
		ID:         p.ID,
		Kind:       p.Kind,
		At:         p.At,
		RequestID:  p.RequestID,
		Solver:     p.Solver,
		Outcome:    p.Outcome,
		DurationMs: p.DurationMs,
	}
	if p.Admission != nil {
		s.Tenant = p.Admission.Tenant
	}
	if p.Breach != nil {
		s.Rule = p.Breach.Rule
	}
	return s
}

// postmortemRing is the bounded bundle store, oldest evicted first.
type postmortemRing struct {
	mu     sync.Mutex
	ring   telemetry.Ring[*Postmortem] //delprop:guardedby mu
	nextID uint64                      //delprop:guardedby mu
}

// add assigns the bundle its id, stores it, and returns the id.
func (r *postmortemRing) add(p *Postmortem) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	p.ID = "pm-" + strconv.FormatUint(r.nextID, 10)
	r.ring.Push(p)
	return p.ID
}

// list returns summaries, newest first.
func (r *postmortemRing) list() []PostmortemSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PostmortemSummary, 0, r.ring.Len())
	for i := r.ring.Len() - 1; i >= 0; i-- {
		out = append(out, r.ring.At(i).summary())
	}
	return out
}

// get returns the bundle by id, or nil once it has been evicted.
func (r *postmortemRing) get(id string) *Postmortem {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.ring.Len(); i++ {
		if p := r.ring.At(i); p.ID == id {
			return p
		}
	}
	return nil
}

// solveTags are what every sink correlates a solve on: the request and
// trace ids, the tenant and the admission outcome.
type solveTags struct {
	reqID    string
	traceID  uint64
	tenant   string
	degraded bool
	rule     string
}

// solveRecord is the finish-time summary of one solve, kept so SLO
// breaches (which fire on the sampler tick, after the fact) can be
// correlated back to a concrete request.
type solveRecord struct {
	solveTags
	solver, outcome string
	durMs           float64
	stats           core.StatsSnapshot
}

// recentSolves is a bounded ring of finished solves, newest last.
type recentSolves struct {
	mu   sync.Mutex
	ring telemetry.Ring[solveRecord] //delprop:guardedby mu
}

func (r *recentSolves) add(rec solveRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring.Push(rec)
}

// match returns the newest record matching a breach's By/Target scoping:
// per-solver rules match on the resolved solver, per-tenant rules on the
// tenant, anything else takes the newest record outright. Failed solves
// win ties against successes at the same recency by scanning newest
// first — the newest matching record is almost always the trigger.
func (r *recentSolves) match(by, target string) (solveRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := r.ring.Len() - 1; i >= 0; i-- {
		rec := r.ring.At(i)
		switch {
		case by == "solver" && target != "":
			if rec.solver == target {
				return rec, true
			}
		case by == "tenant" && target != "":
			if rec.tenant == target {
				return rec, true
			}
		default:
			return rec, true
		}
	}
	return solveRecord{}, false
}

// recordSolve notes one finished solve and captures a postmortem when the
// outcome warrants one: hard failures always, successful solves when they
// ran over the latency SLO.
func (a *api) recordSolve(rec solveRecord) {
	if a.recent == nil {
		return
	}
	a.recent.add(rec)
	switch rec.outcome {
	case "error", "timeout", "panic", "unstoppable":
		a.capturePostmortem(postmortemSolveError, &rec, nil)
	case "ok", "partial":
		if a.slowSolve > 0 && rec.durMs >= float64(a.slowSolve)/float64(time.Millisecond) {
			a.capturePostmortem(postmortemSlowSolve, &rec, nil)
		}
	}
}

// lookupTrace finds a trace by id in the finished ring, then among the
// still-live traces (error captures fire before the trace closes).
func (a *api) lookupTrace(id uint64) *telemetry.TraceJSON {
	if id == 0 {
		return nil
	}
	for _, snap := range [][]telemetry.TraceJSON{a.cfg.Tracer.Snapshot(), a.cfg.Tracer.LiveSnapshot()} {
		for i := range snap {
			if snap[i].ID == id {
				return &snap[i]
			}
		}
	}
	return nil
}

// capturePostmortem freezes one bundle into the ring and returns its id
// ("" when capture is disabled). rec may be nil (a breach with no
// correlatable solve); breach is set for slo_breach captures only.
func (a *api) capturePostmortem(kind string, rec *solveRecord, breach *telemetry.SLOBreach) string {
	if a.postmortems == nil {
		return ""
	}
	p := &Postmortem{
		Kind:       kind,
		At:         time.Now(),
		Breach:     breach,
		Breakers:   a.breakers.Snapshot(),
		Goroutines: runtime.NumGoroutine(),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.HeapInuseBytes = ms.HeapInuse
	if rec != nil {
		p.RequestID = rec.reqID
		p.TraceID = rec.traceID
		p.Solver = rec.solver
		p.Outcome = rec.outcome
		p.DurationMs = rec.durMs
		stats := rec.stats
		p.Stats = &stats
		p.Admission = &AdmissionJSON{Tenant: rec.tenant, Degraded: rec.degraded, Rule: rec.rule}
		p.Trace = a.lookupTrace(rec.traceID)
		p.Events = a.cfg.Events.Journal().ByRequest(rec.reqID)
	} else {
		p.Events = a.cfg.Events.Journal().Recent(64)
	}
	return a.postmortems.add(p)
}

// PostmortemsResponse is the /debug/postmortems listing payload.
type PostmortemsResponse struct {
	Postmortems []PostmortemSummary `json:"postmortems"`
}

// handlePostmortems lists captured bundles, newest first.
func (a *api) handlePostmortems(w http.ResponseWriter, r *http.Request) {
	var list []PostmortemSummary
	if a.postmortems != nil {
		list = a.postmortems.list()
	}
	if list == nil {
		list = []PostmortemSummary{}
	}
	writeJSON(w, http.StatusOK, PostmortemsResponse{Postmortems: list})
}

// handlePostmortem serves one full bundle by id.
func (a *api) handlePostmortem(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var p *Postmortem
	if a.postmortems != nil {
		p = a.postmortems.get(id)
	}
	if p == nil {
		writeErr(w, http.StatusNotFound, codeNotFound,
			fmt.Errorf("postmortem %q not found (evicted or never captured)", id), requestID(r))
		return
	}
	writeJSON(w, http.StatusOK, p)
}
