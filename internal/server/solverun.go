package server

import (
	"strconv"
	"time"

	"delprop/internal/admission"
	"delprop/internal/core"
	"delprop/internal/telemetry"
)

// solveRun is one solve request's observability recorder: it holds what
// every sink correlates on, set once, and is the only code that feeds the
// request's phases, progress and outcome to the tracer, the event bus,
// metrics, the breakers, the flight recorder and the solve log line. Each
// phase duration is read from its trace span once, so the response, the
// phase events, the log line and the metrics all report the span's own
// measurement.
type solveRun struct {
	a         *api
	tr        *telemetry.Trace
	requested string // labels solve_start and the prep phases
	solveTags
	p *core.Problem // set by instance once prep succeeds
	// phaseMs maps each ended phase to its span duration in fractional
	// milliseconds. It is the response's phaseMs and the one reading of
	// each phase that every sink reports.
	phaseMs map[string]float64
}

// startSolveRun opens the request's "solve" trace, stamps the
// correlation attributes on it and publishes solve_start. The caller
// finishes the trace (run.tr.Finish) when the request returns.
func (a *api) startSolveRun(reqID, tenant string, degraded bool, rule string, src solveSource, deadline time.Duration) *solveRun {
	tr := a.cfg.Tracer.Start("solve")
	r := &solveRun{a: a, tr: tr, requested: src.requested, phaseMs: make(map[string]float64, 5),
		solveTags: solveTags{reqID: reqID, traceID: tr.ID(), tenant: tenant, degraded: degraded, rule: rule}}
	tr.SetAttr("requestId", reqID)
	if tenant != "" {
		tr.SetAttr("tenant", tenant)
	}
	if degraded {
		// Keep the admission outcome on the trace so /debug/traces can
		// answer "whose solves degraded" without grepping logs.
		tr.SetAttr("degraded", "true")
		tr.SetAttr("rule", rule)
	}
	startFields := map[string]any{"deadlineMs": millis(deadline), "degraded": degraded}
	if src.sessionID != "" {
		// Warm solves carry their session so /debug/traces can separate
		// amortized solves from cold ones.
		tr.SetAttr("session", src.sessionID)
		tr.SetAttr("warm", "true")
		startFields["session"] = src.sessionID
	}
	r.event(eventSolveStart, r.requested, startFields)
	return r
}

// event publishes one event correlated to the request: every event of a
// solve carries the request id and trace id, so a /events consumer can
// join the stream against the response, the log line and /debug/traces.
func (r *solveRun) event(typ, solver string, fields map[string]any) {
	r.a.cfg.Events.Publish(telemetry.Event{Type: typ, RequestID: r.reqID, TraceID: r.traceID,
		Tenant: r.tenant, Solver: solver, Fields: fields})
}

// openPhase is a phase whose span is open. It is a value, not a closure,
// so opening a phase allocates nothing beyond the span.
type openPhase struct {
	r            *solveRun
	name, solver string
	endSpan      func()
}

// phase opens the named phase's span; solver labels its phase event.
func (r *solveRun) phase(name, solver string) openPhase {
	return openPhase{r, name, solver, r.tr.Span(name)}
}

// end closes the span, records its duration and publishes the phase
// event carrying that same duration.
func (o openPhase) end() {
	o.endSpan()
	ms := millis(o.r.tr.SpanDuration(o.name))
	o.r.phaseMs[o.name] = ms
	o.r.event(eventPhase, o.solver, map[string]any{"phase": o.name, "durationMs": ms})
}

// instance keeps the prepared problem and records its size on the trace:
// |D| source tuples, m queries, Σ|ΔVi| requested view deletions.
func (r *solveRun) instance(p *core.Problem) {
	r.p = p
	r.tr.SetAttr("dbSize", strconv.Itoa(p.DB.Size()))
	r.tr.SetAttr("queries", strconv.Itoa(len(p.Queries)))
	r.tr.SetAttr("deltaSize", strconv.Itoa(p.Delta.Len()))
}

// reroute accounts for a request moved off an open breaker's solver.
func (r *solveRun) reroute(from, to string) {
	r.a.cfg.Metrics.Counter(metricBreakerRerouted,
		"Requests rerouted to a fallback solver because the requested solver's breaker was open, by solver pair.",
		telemetry.Labels{"from": from, "to": to}).Inc()
	r.a.cfg.Logger.Warn("breaker open; rerouting to fallback solver",
		"requestId", r.reqID, "solver", from, "fallback", to)
}

// progress is the core.Stats hook that streams incumbent improvements,
// lower-bound certificates and race member lifecycle straight from the
// solver goroutines onto the (non-blocking) bus. It reads only fields
// set at start, so an abandoned solver goroutine may still call it.
func (r *solveRun) progress(solver string) func(core.ProgressEvent) {
	return func(pe core.ProgressEvent) {
		fields := make(map[string]any, 3)
		switch pe.Kind {
		case core.ProgressIncumbent:
			fields["objective"] = pe.Objective
			fields["deleted"] = pe.Deleted
		case core.ProgressLowerBound:
			fields["bound"] = pe.Objective
		case core.ProgressRaceMemberStart, core.ProgressRaceMemberDone:
			fields["member"] = pe.Member
			if pe.Outcome != "" {
				fields["outcome"] = pe.Outcome
				fields["objective"] = pe.Objective
			}
		}
		r.event(pe.Kind, solver, fields)
	}
}

// race snapshots a finished portfolio race for the response and counts
// who won (and whether by a proven-optimality early exit) and how many
// losing members were cancelled; nil when no portfolio ran.
func (r *solveRun) race(ri *core.RaceInfo) *core.RaceSnapshot {
	if !ri.Ran() {
		return nil
	}
	rs := ri.Snapshot()
	winner := rs.Winner
	if winner == "" {
		winner = "none"
	}
	r.a.cfg.Metrics.Counter(metricParallelRaces,
		"Portfolio races finished, by winning solver and whether the win was a proven-optimality early exit.",
		telemetry.Labels{"winner": winner, "proven": strconv.FormatBool(rs.Proven)}).Inc()
	r.a.cfg.Metrics.Counter(metricParallelCancelled,
		"Portfolio members cancelled (or skipped) before completion because another member already held a provably optimal solution.",
		nil).Add(int64(rs.CancelledLosers))
	return &rs
}

// finish records the solve metrics, the breaker outcome, the flight
// recorder entry and the structured solve log line exactly once per
// request, whatever the outcome.
func (r *solveRun) finish(outcome, solver string, snap core.StatsSnapshot) {
	a := r.a
	r.tr.SetAttr("outcome", outcome)
	a.observeSolve(solver, outcome, r.phaseMs["solve"], snap)
	doneFields := map[string]any{
		"outcome":    outcome,
		"durationMs": r.phaseMs["solve"],
		"nodes":      snap.NodesExpanded,
		"incumbents": snap.IncumbentUpdates,
	}
	if snap.Objective != nil {
		doneFields["objective"] = *snap.Objective
	}
	if r.degraded {
		doneFields["degraded"] = true
		doneFields["rule"] = r.rule
	}
	r.event(eventSolveDone, solver, doneFields)
	// Hard failures (the solver broke, not the input) feed the breaker;
	// client cancellations and solver-reported errors are neutral so a
	// misbehaving client cannot trip a healthy solver's breaker.
	switch outcome {
	case "panic", "timeout", "unstoppable":
		a.breakers.Record(solver, admission.OutcomeFailure)
	case "ok", "partial":
		a.breakers.Record(solver, admission.OutcomeSuccess)
	default:
		a.breakers.Record(solver, admission.OutcomeNeutral)
	}
	if r.degraded {
		a.cfg.Metrics.Counter(metricDegradedSolves,
			"Solves forced onto the degrade solver, by tenant and the rule that fired.",
			telemetry.Labels{"tenant": r.tenant, "rule": r.rule}).Inc()
	}
	// Feed the flight recorder: the record correlates later SLO breaches
	// to this request, and hard failures / over-SLO solves capture a
	// postmortem bundle immediately.
	a.recordSolve(solveRecord{r.solveTags, solver, outcome, r.phaseMs["solve"], snap})
	a.cfg.Logger.Info("solve",
		"requestId", r.reqID,
		"solver", solver,
		"outcome", outcome,
		"tenant", r.tenant,
		"degraded", r.degraded,
		"rule", r.rule,
		"dbSize", r.p.DB.Size(),
		"queries", len(r.p.Queries),
		"deltaSize", r.p.Delta.Len(),
		"parseMs", int64(r.phaseMs["parse"]),
		"viewsMs", int64(r.phaseMs["views"]),
		"classifyMs", int64(r.phaseMs["classify"]),
		"solveMs", int64(r.phaseMs["solve"]),
		"nodes", snap.NodesExpanded,
		"pruned", snap.BranchesPruned,
		"checkpoints", snap.Checkpoints,
		"incumbents", snap.IncumbentUpdates,
		"restarts", snap.Restarts)
}

// millis converts a duration to fractional milliseconds, the unit of
// every *Ms field in responses and events.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
