package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"delprop/internal/server"
)

// clients is the closed loop's client count: one per CPU of the 2-CPU
// box the figures were taken on. Every caller of delpropd (the CLI,
// repair cleaning rounds, batch jobs) waits for its reply before sending
// the next request, so the loop is closed.
const clients = 2

// batchWorkers is the worker pool a batch request asks for.
const batchWorkers = 2

// harness is one in-process delpropd: the daemon's handler with its
// default configuration, behind a loopback listener.
type harness struct {
	ts       *httptest.Server
	client   *http.Client
	sessions map[*instance]string // warm-session workload only
}

// startHarness builds the server and its listener; for the warm workload
// it also registers every instance with POST /sessions.
func startHarness(insts []*instance, registerSessions bool) (*harness, error) {
	srv := server.NewHandler(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	h := &harness{
		ts:     httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}},
	}
	if !registerSessions {
		return h, nil
	}
	h.sessions = make(map[*instance]string, len(insts))
	for _, inst := range insts {
		var resp server.SessionResponse
		status, err := h.post("/sessions", server.SessionRequest{Database: inst.database, Queries: inst.queries}, &resp)
		if err != nil || status != http.StatusOK {
			h.close()
			return nil, fmt.Errorf("register %s session: status %d: %v", inst.family, status, err)
		}
		h.sessions[inst] = resp.SessionID
	}
	return h, nil
}

func (h *harness) close() {
	h.client.CloseIdleConnections()
	h.ts.Close()
}

// post sends a JSON body and decodes a 200 response into out.
func (h *harness) post(path string, body, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	return h.postRaw(path, buf, out)
}

func (h *harness) postRaw(path string, body []byte, out any) (int, error) {
	resp, err := h.client.Post(h.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// scrape reads the named series from GET /metrics. A histogram is read
// through its _sum and _count series.
func (h *harness) scrape(names ...string) (map[string]float64, error) {
	resp, err := h.client.Get(h.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// outcome is what one request of the closed loop produced.
type outcome struct {
	latency time.Duration
	family  string    // the solved instance's family (single solves only)
	solves  int       // correct instance solves (a batch counts its items)
	failed  bool      // non-200, undecodable, or a wrong answer
	phaseMs float64   // Σ phaseMs of the response (cold and warm)
	items   []float64 // batch: Σ phaseMs per item, in family order
	repeat  bool      // warm: the deletion was already served in this run
	err     string
}

// sender issues request k of a workload's sequence.
type sender func(k int) outcome

// coldSender posts every request of the rotation to POST /solve with the
// full database and queries.
func coldSender(h *harness, rot []request) sender {
	bodies := make([][]byte, len(rot))
	for i, r := range rot {
		bodies[i] = mustJSON(instanceRequest(r))
	}
	return func(k int) outcome {
		i := k % len(rot)
		return h.solveOne("/solve", bodies[i], rot[i])
	}
}

// warmSender posts deletions only to POST /sessions/{id}/solve.
func warmSender(h *harness, rot []request) sender {
	bodies := make([][]byte, len(rot))
	paths := make([]string, len(rot))
	for i, r := range rot {
		bodies[i] = mustJSON(server.SessionSolveRequest{Deletions: r.inst.deletions[r.del], Solver: "auto"})
		paths[i] = "/sessions/" + h.sessions[r.inst] + "/solve"
	}
	var seen sync.Map
	return func(k int) outcome {
		i := k % len(rot)
		o := h.solveOne(paths[i], bodies[i], rot[i])
		_, o.repeat = seen.LoadOrStore(i, true)
		return o
	}
}

// batchSender posts one round of the rotation, one item per family, to
// POST /solve/batch.
func batchSender(h *harness, rot []request) sender {
	n := len(familyNames)
	rounds := len(rot) / n
	bodies := make([][]byte, rounds)
	for b := range bodies {
		req := server.BatchRequest{Workers: batchWorkers}
		for _, r := range rot[b*n : (b+1)*n] {
			req.Items = append(req.Items, instanceRequest(r))
		}
		bodies[b] = mustJSON(req)
	}
	return func(k int) outcome {
		b := k % rounds
		start := time.Now()
		var resp server.BatchResponse
		status, err := h.postRaw("/solve/batch", bodies[b], &resp)
		o := outcome{latency: time.Since(start), items: make([]float64, n)}
		if err != nil || status != http.StatusOK || len(resp.Items) != n {
			o.failed, o.err = true, fmt.Sprintf("batch: status %d: %v", status, err)
			return o
		}
		for j, item := range resp.Items {
			want := rot[b*n+j]
			if item.Response == nil {
				o.failed, o.err = true, fmt.Sprintf("batch item %d (%s) did not solve", j, want.inst.family)
				continue
			}
			if got := responseAnswer(item.Response); !got.equal(want.want()) {
				o.failed, o.err = true, fmt.Sprintf("batch item %d (%s): got %v, want %v", j, want.inst.family, got, want.want())
				continue
			}
			o.solves++
			o.items[j] = sumPhases(item.Response.PhaseMs)
		}
		return o
	}
}

func (h *harness) solveOne(path string, body []byte, r request) outcome {
	start := time.Now()
	var resp server.SolveResponse
	status, err := h.postRaw(path, body, &resp)
	o := outcome{latency: time.Since(start), family: r.inst.family}
	if err != nil || status != http.StatusOK {
		o.failed, o.err = true, fmt.Sprintf("%s %s: status %d: %v", path, r.inst.family, status, err)
		return o
	}
	if got := responseAnswer(&resp); !got.equal(r.want()) {
		o.failed, o.err = true, fmt.Sprintf("%s %s: got %v, want %v", path, r.inst.family, got, r.want())
		return o
	}
	o.solves, o.phaseMs = 1, sumPhases(resp.PhaseMs)
	return o
}

func instanceRequest(r request) server.InstanceRequest {
	return server.InstanceRequest{
		Database:  r.inst.database,
		Queries:   r.inst.queries,
		Deletions: r.inst.deletions[r.del],
		Solver:    "auto",
	}
}

func sumPhases(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built request structs reach here
	}
	return b
}

// closedLoop runs clients goroutines, each sending its next request as
// soon as the previous reply arrives, until ctx is done. Requests are
// numbered from first in one shared sequence, so the clients together
// walk the rotation in order.
func closedLoop(ctx context.Context, first int, send sender) []outcome {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				per[c] = append(per[c], send(int(next.Add(1)-1)))
			}
		}(c)
	}
	wg.Wait()
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}
