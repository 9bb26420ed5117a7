// Command perfbench is the delprop request benchmark. It starts an
// in-process delpropd (server.NewHandler with the default configuration
// behind a loopback listener), drives one named workload with a closed
// loop of two clients, checks every answer against an in-process
// reference, and prints every metric by name with its unit. The last
// line of standard output is the result as one JSON object.
//
//	perfbench --workload cold-solve --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it reports the per-layer metrics instead: a shorter
// loaded window for the server-side figures, then an in-process replay
// of the same requests through each layer's public functions, recording
// a span around every call. README.md maps each layer metric to the
// end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"delprop/internal/benchkit"
)

// A run builds its server (and, for warm-session, registers its
// sessions) at least minSetups times and until setupBudget has passed, at
// most maxSetups times; setup_s is the median. Server construction alone
// takes well under a millisecond, so it needs many repetitions to read
// the same from run to run.
const (
	minSetups   = 5
	maxSetups   = 201
	setupBudget = 250 * time.Millisecond
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for the span file; empty writes none
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadDef is one named traffic mix. Every workload sends the same
// seeded rotation of instances; they differ only in request type.
type workloadDef struct {
	sessions bool // register every instance with POST /sessions in set-up
	sender   func(*harness, []request) sender
	// warmup is how many requests are sent before timing starts: one
	// round of the rotation, so every family's code path has run once.
	warmup int
}

var workloads = map[string]workloadDef{
	cold:  {sender: coldSender, warmup: len(familyNames)},
	warm:  {sessions: true, sender: warmSender, warmup: len(familyNames)},
	batch: {sender: batchSender, warmup: 1},
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name: cold-solve, warm-session or batch-solve")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed; the same seed gives the same requests")
	fs.IntVar(&opt.seconds, "seconds", 35, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	fs.StringVar(&opt.out, "out", "", "directory the traced run writes its spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if _, ok := workloads[opt.workload]; !ok {
		return opt, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds < 1 {
		return opt, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return opt, errors.New("--trace must be 0 or 1")
	}
	opt.trace = trace == 1
	return opt, nil
}

// report accumulates checks and metrics and prints the human-readable
// lines as it goes.
type report struct {
	w         io.Writer
	workload  string
	attempted int
	failed    int
	firstErr  string
	metrics   map[string]metric
}

func (r *report) check(failed bool, msg string) {
	r.attempted++
	if failed {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = msg
		}
	}
}

func (r *report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name != name {
			continue
		}
		shown := fmt.Sprintf("%.6g %s", v, d.unit)
		if !d.appliesTo(r.workload) {
			v, shown = 0, "n/a"
		}
		fmt.Fprintf(r.w, "metric %-32s %-20s %s\n", name, shown, d.moves)
		r.metrics[name] = metric{Value: v, Unit: d.unit}
		return
	}
	panic("undeclared metric " + name)
}

func run(opt options, w io.Writer) (result, error) {
	def := workloads[opt.workload]
	env := captureEnvironment(opt.workload, opt.seed, opt.seconds, opt.trace)
	envLine, _ := json.Marshal(env) // a struct of strings and ints always marshals
	fmt.Fprintf(w, "env %s\n", envLine)

	insts, rot, err := buildRotation(opt.seed)
	if err != nil {
		return result{}, err
	}
	rep := &report{w: w, workload: opt.workload, metrics: map[string]metric{}}
	for _, inst := range insts {
		for _, mismatch := range inst.reevaluation {
			rep.check(mismatch != "", mismatch)
		}
	}
	printFamilies(w, insts)

	var setups []float64
	var h *harness
	for began := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(began) < setupBudget); {
		if h != nil {
			h.close()
		}
		start := time.Now()
		h, err = startHarness(insts, def.sessions)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer h.close()

	send := def.sender(h, rot)
	for k := 0; k < def.warmup; k++ {
		o := send(k)
		rep.check(o.failed, o.err)
	}
	window := time.Duration(opt.seconds) * time.Second
	if opt.trace {
		window /= 2
	}
	lw, err := measureLoad(h, send, def.warmup, window)
	if err != nil {
		return result{}, err
	}
	for _, o := range lw.outcomes {
		rep.check(o.failed, o.err)
	}

	if !opt.trace {
		endToEndMetrics(rep, lw, rot, setups)
	} else {
		serverLayerMetrics(rep, lw)
		spans, err := tracedReplay(rep, opt, insts, rot, time.Duration(opt.seconds)*time.Second-window)
		if err != nil {
			return result{}, err
		}
		if opt.out != "" {
			if err := writeSpans(opt, env, spans); err != nil {
				return result{}, err
			}
		}
	}
	if rep.failed > 0 {
		fmt.Fprintf(w, "first failure: %s\n", rep.firstErr)
	}
	fmt.Fprintf(w, "failed_ratio %.6g (%d of %d checks)\n", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	return result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}, nil
}

func printFamilies(w io.Writer, insts []*instance) {
	for _, f := range familyNames {
		base, views, n := 0, 0, 0
		for _, inst := range insts {
			if inst.family == f {
				base += inst.baseTuples
				views += inst.viewTuples
				n++
			}
		}
		fmt.Fprintf(w, "family %-13s instances=%d base_tuples/instance=%.1f view_tuples/instance=%.1f fanout=%.2f\n",
			f, n, float64(base)/float64(n), float64(views)/float64(n), float64(views)/float64(base))
	}
}

// loadWindow is one timed closed-loop window.
type loadWindow struct {
	outcomes []outcome
	wall     time.Duration
	before   runtimeReading
	after    runtimeReading
	heapPeak float64            // bytes
	scraped  map[string]float64 // /metrics deltas over the window
}

var scrapedSeries = []string{
	"delprop_session_hits_total",
	"delprop_session_misses_total",
	"delprop_admission_queue_wait_seconds_sum",
	"delprop_admission_queue_wait_seconds_count",
	"delprop_parallel_batch_worker_ms_total",
}

func measureLoad(h *harness, send sender, first int, window time.Duration) (loadWindow, error) {
	m0, err := h.scrape(scrapedSeries...)
	if err != nil {
		return loadWindow{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	lw := loadWindow{before: readRuntime()}
	heap := watchHeap(5 * time.Millisecond)
	start := time.Now()
	lw.outcomes = closedLoop(ctx, first, send)
	lw.wall = time.Since(start)
	lw.heapPeak = heap.Stop()
	lw.after = readRuntime()
	m1, err := h.scrape(scrapedSeries...)
	if err != nil {
		return loadWindow{}, err
	}
	lw.scraped = make(map[string]float64, len(m1))
	for k, v := range m1 {
		lw.scraped[k] = v - m0[k]
	}
	return lw, nil
}

func (lw loadWindow) solves() int {
	n := 0
	for _, o := range lw.outcomes {
		n += o.solves
	}
	return n
}

func endToEndMetrics(rep *report, lw loadWindow, rot []request, setups []float64) {
	lat := make([]float64, len(lw.outcomes))
	for i, o := range lw.outcomes {
		lat[i] = ms(o.latency)
	}
	_, p50, p95 := benchkit.Summary(lat)
	beyond := len(lat) - int(math.Ceil(0.95*float64(len(lat)))) // above benchkit's nearest-rank p95
	fmt.Fprintf(rep.w, "latency samples=%d beyond_p95=%d\n", len(lat), beyond)
	if beyond < 10 {
		fmt.Fprintf(rep.w, "warning: fewer than 10 samples beyond p95; raise --seconds\n")
	}
	solves := float64(lw.solves())
	se := 0.0
	for _, r := range rot {
		se += r.want().SideEffect
	}
	rep.set(endToEnd, "solves_per_s", solves/lw.wall.Seconds())
	rep.set(endToEnd, "latency_p50_ms", p50)
	rep.set(endToEnd, "latency_p95_ms", p95)
	rep.set(endToEnd, "alloc_mb_per_solve", (lw.after.allocBytes-lw.before.allocBytes)/1e6/solves)
	rep.set(endToEnd, "heap_peak_mb", lw.heapPeak/1e6)
	rep.set(endToEnd, "side_effect_total", se)
	_, setup, _ := benchkit.Summary(setups)
	rep.set(endToEnd, "setup_s", setup)
}

// serverLayerMetrics reports the per-layer figures only the loaded server
// can give: /metrics counters, phase-time overhead, the batch pool, the
// Go runtime and each family's share of server time.
func serverLayerMetrics(rep *report, lw loadWindow) {
	layers := allPerLayer()
	s := lw.scraped
	hitRatio := 0.0
	if n := s["delprop_session_hits_total"] + s["delprop_session_misses_total"]; n > 0 {
		hitRatio = s["delprop_session_hits_total"] / n
	}
	rep.set(layers, "session.hit_ratio", hitRatio)
	repeats, overhead := 0, make([]float64, 0, len(lw.outcomes))
	for _, o := range lw.outcomes {
		if o.repeat {
			repeats++
		}
		if !o.failed {
			overhead = append(overhead, ms(o.latency)-o.phaseMs)
		}
	}
	rep.set(layers, "session.repeat_share", float64(repeats)/float64(len(lw.outcomes)))
	rep.set(layers, "server.overhead_ms", mean(overhead))
	queueWait := 0.0
	if n := s["delprop_admission_queue_wait_seconds_count"]; n > 0 {
		queueWait = s["delprop_admission_queue_wait_seconds_sum"] / n * 1000
	}
	rep.set(layers, "admission.queue_wait_ms", queueWait)
	rep.set(layers, "batch.worker_busy_share",
		s["delprop_parallel_batch_worker_ms_total"]/(ms(lw.wall)*clients*batchWorkers))
	var straggler []float64
	for _, o := range lw.outcomes {
		if len(o.items) > 0 && !o.failed {
			slowest, sum := 0.0, 0.0
			for _, v := range o.items {
				sum += v
				slowest = math.Max(slowest, v)
			}
			straggler = append(straggler, slowest/(sum/float64(len(o.items))))
		}
	}
	rep.set(layers, "batch.straggler_ratio", mean(straggler))
	solves := float64(lw.solves())
	rep.set(layers, "runtime.gc_cpu_share", (lw.after.gcCPU-lw.before.gcCPU)/(lw.after.totalCPU-lw.before.totalCPU))
	rep.set(layers, "runtime.gc_cycles_per_solve", (lw.after.gcCycles-lw.before.gcCycles)/solves)

	// Family time share: client latency for single solves, the item's
	// server phase time inside a batch.
	byFamily := map[string]float64{}
	total := 0.0
	for _, o := range lw.outcomes {
		if o.failed {
			continue
		}
		if o.family != "" {
			byFamily[o.family] += ms(o.latency)
			total += ms(o.latency)
		}
		for j, v := range o.items {
			byFamily[familyNames[j]] += v
			total += v
		}
	}
	for _, f := range familyNames {
		rep.set(layers, "family."+f+".time_share", byFamily[f]/total)
	}
}

func writeSpans(opt options, env environment, spans []span) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.json", opt.workload, opt.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	err = json.NewEncoder(f).Encode(struct {
		Env   environment `json:"env"`
		Spans []span      `json:"spans"`
	}{env, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return nil
}
