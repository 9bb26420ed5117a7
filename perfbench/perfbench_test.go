package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the program must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the metric
// tables in step: same workloads, same metric names, units and
// directions, in the same order.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	check := func(kind string, i int, name, unit, better string, defs []metricDef) {
		if i >= len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %s, the program nothing", kind, name)
			return
		}
		d := defs[i]
		if d.name != name || d.unit != unit || d.better != better {
			t.Errorf("%s %d: BENCHMARK.json has %s %s %s, the program %s %s %s",
				kind, i, name, unit, better, d.name, d.unit, d.better)
		}
	}
	for i, m := range bf.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layers := allPerLayer()
	for i, m := range bf.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, layers)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(layers))
	}
}

// TestWorkloadsShort runs every workload briefly, twice untraced and once
// traced: every named metric must be present with its unit, no check may
// fail, side_effect_total must repeat exactly, and the traced run must
// write the five phase spans for every replayed request.
func TestWorkloadsShort(t *testing.T) {
	if !testing.Short() {
		t.Skip("runs each workload; use -short")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			var sideEffect []float64
			for i := 0; i < 2; i++ {
				res := runOK(t, options{workload: name, seed: 1, seconds: 1})
				hasMetrics(t, res, endToEnd)
				sideEffect = append(sideEffect, res.Metrics["side_effect_total"].Value)
			}
			if sideEffect[0] != sideEffect[1] {
				t.Errorf("side_effect_total changed between runs: %v", sideEffect)
			}

			out := t.TempDir()
			res := runOK(t, options{workload: name, seed: 1, seconds: 2, trace: true, out: out})
			hasMetrics(t, res, allPerLayer())
			checkSpans(t, filepath.Join(out, "spans-"+name+"-seed1.json"))
		})
	}
}

func runOK(t *testing.T, opt options) result {
	t.Helper()
	res, err := run(opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	return res
}

func hasMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Env   environment `json:"env"`
		Spans []span      `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.Env.NumCPU == 0 || file.Env.GoVersion == "" {
		t.Errorf("environment not recorded: %+v", file.Env)
	}
	phases := map[int]map[string]bool{}
	for _, s := range file.Spans {
		if s.Name == "request" {
			phases[s.Req] = map[string]bool{}
		}
	}
	for _, s := range file.Spans {
		if s.Parent >= 0 && file.Spans[s.Parent].Name == "request" {
			phases[s.Req][s.Name] = true
		}
	}
	if len(phases) == 0 {
		t.Fatal("no request spans")
	}
	for req, got := range phases {
		for _, ph := range []string{"parse", "views", "classify", "solve", "evaluate"} {
			if !got[ph] {
				t.Errorf("request %d has no %s span", req, ph)
			}
		}
	}
}
