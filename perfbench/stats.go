package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// runtimeReading is a snapshot of the Go runtime counters the benchmark
// turns into rates over a timed window.
type runtimeReading struct {
	allocBytes float64 // cumulative heap allocation
	gcCycles   float64
	gcCPU      float64 // estimated GC CPU seconds
	totalCPU   float64 // estimated total CPU seconds
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeReading{
		allocBytes: sampleValue(s[0]),
		gcCycles:   sampleValue(s[1]),
		gcCPU:      sampleValue(s[2]),
		totalCPU:   sampleValue(s[3]),
	}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// heapWatch samples the bytes held by heap objects (live plus not yet
// swept) until stopped.
type heapWatch struct {
	stop chan struct{}
	done chan []float64
}

func watchHeap(every time.Duration) *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		var samples []float64
		for {
			metrics.Read(s)
			samples = append(samples, float64(s[0].Value.Uint64()))
			select {
			case <-w.stop:
				w.done <- samples
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// Stop ends the sampling and returns the heap peak in bytes, read as the
// 99th percentile of the samples: the single highest sample depends on
// where one garbage collection happened to start, the 99th percentile
// on the load.
func (w *heapWatch) Stop() float64 {
	close(w.stop)
	samples := <-w.done
	sort.Float64s(samples)
	return samples[(len(samples)-1)*99/100]
}

// environment is recorded with every capture.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func captureEnvironment(workload string, seed int64, seconds int, trace bool) environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
