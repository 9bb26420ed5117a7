package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names and units; the self-test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// moves says, for a per-layer metric, which end-to-end metric a change
	// in this layer should move and on which workloads.
	moves string
	// notApplicable lists the workloads whose requests never reach the
	// layer; there the metric reads 0 and the report prints "n/a".
	notApplicable []string
}

const (
	cold  = "cold-solve"
	warm  = "warm-session"
	batch = "batch-solve"
)

// endToEnd are the metrics a caller of delpropd sees, measured with
// tracing off. The failure ratio is not among them because it must read
// 0: it is the result line's failed ÷ attempted instead.
var endToEnd = []metricDef{
	{name: "solves_per_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p95_ms", unit: "ms", better: "lower"},
	{name: "alloc_mb_per_solve", unit: "MB", better: "lower"},
	{name: "heap_peak_mb", unit: "MB", better: "lower"},
	{name: "side_effect_total", unit: "count", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

var (
	onlyBatch = []string{cold, warm}
	onlyWarm  = []string{cold, batch}
	notWarm   = []string{warm}
)

// perLayer are the traced run's metrics, named after the module (or the
// server phase) they time.
var perLayer = []metricDef{
	{name: "parse.ms", unit: "ms", better: "lower", moves: "latency_p50_ms on cold and batch; small share; warm parses deletions only"},
	{name: "parse.alloc_kb", unit: "KB", better: "lower", moves: "alloc_mb_per_solve on cold and batch"},
	{name: "relation.tuples", unit: "count", better: "lower", moves: "input size per request (context for relation.encode_ns)", notApplicable: notWarm},
	{name: "relation.encode_ns", unit: "ns", better: "lower", moves: "alloc_mb_per_solve and solves_per_s on cold and batch", notApplicable: notWarm},
	{name: "cq.evaluate_ms", unit: "ms", better: "lower", moves: "latency and solves_per_s on cold and batch; no change on warm", notApplicable: notWarm},
	{name: "cq.evaluate_alloc_kb", unit: "KB", better: "lower", moves: "alloc_mb_per_solve on cold and batch", notApplicable: notWarm},
	{name: "cq.answers", unit: "count", better: "lower", moves: "work count behind cq.evaluate_ms", notApplicable: notWarm},
	{name: "cq.derivations", unit: "count", better: "lower", moves: "work count behind cq.evaluate_ms", notApplicable: notWarm},
	{name: "views.ms", unit: "ms", better: "lower", moves: "latency_p95_ms, solves_per_s on cold and batch (star sets the tail); no change on warm"},
	{name: "views.alloc_kb", unit: "KB", better: "lower", moves: "alloc_mb_per_solve on cold and batch"},
	{name: "view.materialize_ms", unit: "ms", better: "lower", moves: "latency_p95_ms and solves_per_s on cold and batch", notApplicable: notWarm},
	{name: "view.inverted_index_ms", unit: "ms", better: "lower", moves: "latency_p95_ms and solves_per_s on cold and batch", notApplicable: notWarm},
	{name: "view.maintainer_build_ms", unit: "ms", better: "lower", moves: "latency_p95_ms on cold and batch (built once per skeleton on warm)", notApplicable: notWarm},
	{name: "view.maintainer_clone_ms", unit: "ms", better: "lower", moves: "latency on all three workloads, warm included"},
	{name: "view.view_tuples", unit: "count", better: "lower", moves: "work count behind views.ms"},
	{name: "view.fanout", unit: "ratio", better: "lower", moves: "view tuples per base tuple (context for views.ms)"},
	{name: "classify.ms", unit: "ms", better: "lower", moves: "latency and solves_per_s on all three workloads, warm included"},
	{name: "classify.alloc_kb", unit: "KB", better: "lower", moves: "alloc_mb_per_solve on all three workloads"},
	{name: "solve.ms", unit: "ms", better: "lower", moves: "latency_p50_ms and solves_per_s, most on warm"},
	{name: "solve.alloc_kb", unit: "KB", better: "lower", moves: "alloc_mb_per_solve, most on warm"},
	{name: "solve.nodes_expanded", unit: "count", better: "lower", moves: "work count behind solve.ms"},
	{name: "solve.checkpoints", unit: "count", better: "lower", moves: "cancellation polls behind solve.ms"},
	{name: "evaluate.ms", unit: "ms", better: "lower", moves: "latency on cold and batch; on warm only certificate-cache misses pay it"},
	{name: "evaluate.dual_bound_ms", unit: "ms", better: "lower", moves: "latency on cold and batch; on warm only certificate-cache misses pay it"},
	{name: "evaluate.alloc_kb", unit: "KB", better: "lower", moves: "alloc_mb_per_solve on cold and batch"},
	{name: "session.register_ms", unit: "ms", better: "lower", moves: "setup_s on warm", notApplicable: onlyWarm},
	{name: "session.hit_ratio", unit: "ratio", better: "higher", moves: "latency_p50_ms on warm", notApplicable: onlyWarm},
	{name: "session.repeat_share", unit: "ratio", better: "higher", moves: "share of warm requests the certificate cache can serve", notApplicable: onlyWarm},
	{name: "server.overhead_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on warm, where requests are small", notApplicable: []string{batch}},
	{name: "admission.queue_wait_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on warm; 0 while no request queues"},
	{name: "batch.worker_busy_share", unit: "ratio", better: "higher", moves: "latency_p95_ms and solves_per_s on batch", notApplicable: onlyBatch},
	{name: "batch.straggler_ratio", unit: "ratio", better: "lower", moves: "latency_p95_ms and solves_per_s on batch", notApplicable: onlyBatch},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower", moves: "solves_per_s and alloc_mb_per_solve on cold and batch"},
	{name: "runtime.gc_cycles_per_solve", unit: "count", better: "lower", moves: "solves_per_s and alloc_mb_per_solve on cold and batch"},
	{name: "trace.solves_per_s", unit: "1/s", better: "higher", moves: "in-process solves per second with tracing on, one client"},
	{name: "trace.untraced_solves_per_s", unit: "1/s", better: "higher", moves: "the same replay with tracing off"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower", moves: "tracing cost: untraced over traced solves_per_s, minus 1"},
}

// familyMetrics are reported per instance family, so the per-layer list
// also carries family.<name>.<metric> for every family of the rotation.
var familyMetrics = []metricDef{
	{name: "view_tuples", unit: "count", better: "lower", moves: "mean view tuples per instance"},
	{name: "fanout", unit: "ratio", better: "lower", moves: "view tuples per base tuple"},
	{name: "time_share", unit: "ratio", better: "lower", moves: "share of the workload's server time spent on the family"},
}

// allPerLayer is perLayer followed by the per-family metrics.
func allPerLayer() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, f := range familyNames {
		for _, m := range familyMetrics {
			m.name = "family." + f + "." + m.name
			out = append(out, m)
		}
	}
	return out
}

func (m metricDef) appliesTo(workload string) bool {
	for _, w := range m.notApplicable {
		if w == workload {
			return false
		}
	}
	return true
}
