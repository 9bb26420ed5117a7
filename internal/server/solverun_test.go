package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"delprop/internal/telemetry"
)

// Solve-recorder suite: every sink reports the same per-phase
// measurement, and the bus's event history outlives the drain-time bus
// shutdown that postmortems are still captured during.

// TestOneMeasurementPerPhase: for a cold /solve and a warm session
// solve, each phase's response phaseMs, trace span durationMs on
// /debug/traces and phase event durationMs are the same number.
func TestOneMeasurementPerPhase(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()

	resp, body := post(t, srv, "/sessions", SessionRequest{Database: fig1DB, Queries: fig1Queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status = %d: %s", resp.StatusCode, body)
	}
	sess := decodeSession(t, body)

	solves := []struct {
		name, path string
		body       any
	}{
		{"cold", "/solve", InstanceRequest{Database: fig1DB, Queries: fig1Queries, Deletions: "Q4(John, TKDE, XML)"}},
		{"warm", "/sessions/" + sess.SessionID + "/solve", SessionSolveRequest{Deletions: "Q4(John, TKDE, XML)"}},
	}
	for _, s := range solves {
		resp, body := post(t, srv, s.path, s.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s solve status = %d: %s", s.name, resp.StatusCode, body)
		}
		var out SolveResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}

		var traces TracesResponse
		getJSON(t, srv, "/debug/traces", &traces)
		spans := map[string]float64{}
		for _, tr := range traces.Traces {
			if tr.Attrs["requestId"] != out.RequestID {
				continue
			}
			for _, sp := range tr.Spans {
				spans[sp.Name] = sp.DurationMs
			}
		}

		events := map[string]float64{}
		for _, ev := range app.Events().Journal().ByRequest(out.RequestID) {
			if ev.Type == eventPhase {
				events[ev.Fields["phase"].(string)] = ev.Fields["durationMs"].(float64)
			}
		}

		for _, p := range []string{"parse", "views", "classify", "solve", "evaluate"} {
			resp, inResp := out.PhaseMs[p]
			span, inSpans := spans[p]
			ev, inEvents := events[p]
			if !inResp || !inSpans || !inEvents {
				t.Errorf("%s %s: in phaseMs %v, spans %v, phase events %v: want all three",
					s.name, p, inResp, inSpans, inEvents)
			}
			if span != resp || ev != resp {
				t.Errorf("%s %s: phaseMs %v, span %v, phase event %v: want one measurement",
					s.name, p, resp, span, ev)
			}
		}
	}
}

// TestHistorySurvivesDrain: a solve that drain interrupts mid-flight
// still leaves its solve_start and phase events in the solve_error
// postmortem, although SetDraining shut the bus down before the solve
// failed.
func TestHistorySurvivesDrain(t *testing.T) {
	registerFaultSolvers()
	app := NewHandler(Config{})
	srv := httptest.NewServer(app)
	defer srv.Close()

	raw, err := json.Marshal(solveReq("500ms", "test-faulty-block"))
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, body, err}
	}()

	// Drain once the blocking solver is running: the live trace has an
	// open solve span.
	deadline := time.Now().Add(5 * time.Second)
	for !solveSpanOpen(app.Tracer().LiveSnapshot()) {
		if time.Now().After(deadline) {
			t.Fatal("solve never reached the solve phase")
		}
		time.Sleep(5 * time.Millisecond)
	}
	app.SetDraining(true)
	select {
	case <-app.Events().Subscribe(telemetry.Filter{}, 1).Done():
	default:
		t.Fatal("SetDraining left the event bus open")
	}

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.status != http.StatusGatewayTimeout {
		t.Fatalf("blocked solve status = %d, want 504: %s", res.status, res.body)
	}
	reqID := decodeErr(t, res.body).RequestID

	var list PostmortemsResponse
	getJSON(t, srv, "/debug/postmortems", &list)
	var id string
	for _, sum := range list.Postmortems {
		if sum.Kind == postmortemSolveError && sum.RequestID == reqID && sum.Outcome == "timeout" {
			id = sum.ID
		}
	}
	if id == "" {
		t.Fatalf("no timeout solve_error postmortem for %s: %+v", reqID, list.Postmortems)
	}
	var pm Postmortem
	getJSON(t, srv, "/debug/postmortems/"+id, &pm)
	var starts, phases int
	for _, ev := range pm.Events {
		switch ev.Type {
		case eventSolveStart:
			starts++
		case eventPhase:
			phases++
		}
	}
	// parse, views, classify and solve ended before the postmortem froze.
	if starts != 1 || phases != 4 {
		t.Fatalf("postmortem events: %d solve_start, %d phase, want 1 and 4: %+v", starts, phases, pm.Events)
	}
}

// solveSpanOpen reports whether some live trace has entered its solve
// phase.
func solveSpanOpen(live []telemetry.TraceJSON) bool {
	for _, tr := range live {
		for _, sp := range tr.Spans {
			if sp.Name == "solve" {
				return true
			}
		}
	}
	return false
}
