package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"raal/internal/physical"
	"raal/internal/sparksim"
)

// stubPlanner returns one fixed candidate set for any parsable "query";
// the string "bad sql" simulates a front-end rejection.
func stubPlanner(plans ...*physical.Plan) PlanFunc {
	return func(sql string) ([]*physical.Plan, error) {
		if sql == "bad sql" {
			return nil, fmt.Errorf("sql: syntax error near %q", sql)
		}
		return plans, nil
	}
}

func newTestHandler(t *testing.T, cfg Config, plans ...*physical.Plan) *Handler {
	t.Helper()
	if len(plans) == 0 {
		plans = []*physical.Plan{{Sig: "default"}}
	}
	s := mustServer(t, cfg)
	h, err := NewHandler(s, HTTPConfig{Planner: stubPlanner(plans...)})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func postEstimate(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, EstimateResponse, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var er EstimateResponse
	_ = json.Unmarshal(buf.Bytes(), &er)
	return resp, er, buf.String()
}

func TestHTTPEstimateHealthy(t *testing.T) {
	h := newTestHandler(t, Config{Deep: constEstimator(42), Fallback: constEstimator(7)})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, er, _ := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if er.CostSec != 42 || er.Degraded || er.Source != "model" || er.PlanSig != "default" {
		t.Fatalf("bad body: %+v", er)
	}
}

// TestHTTPInjectedPanicDegrades is the first acceptance clause: an
// injected panic inside the deep path must yield HTTP 200 with
// degraded:true and the GPSJ fallback's estimate — and the server must
// survive to answer again.
func TestHTTPInjectedPanicDegrades(t *testing.T) {
	h := newTestHandler(t, Config{
		Deep:     constEstimator(42),
		Fallback: constEstimator(7),
		Faults:   &FaultConfig{Seed: 1, PanicProb: 1},
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	for i := 0; i < 5; i++ {
		resp, er, body := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, body)
		}
		if !er.Degraded || er.CostSec != 7 || er.Source != "fallback" {
			t.Fatalf("request %d: want degraded fallback answer, got %s", i, body)
		}
		if !strings.Contains(er.Reason, "panic") {
			t.Fatalf("request %d: reason should carry the panic, got %q", i, er.Reason)
		}
	}
}

// TestHTTPInjectedDelay is the second acceptance clause: a delay pushed
// past the deadline yields the fallback under FallbackOnDeadline and 504
// under FailOnDeadline.
func TestHTTPInjectedDelay(t *testing.T) {
	faults := &FaultConfig{Seed: 2, DelayProb: 1, Delay: 5 * time.Second}
	t.Run("fallback-policy", func(t *testing.T) {
		h := newTestHandler(t, Config{
			Deep: constEstimator(42), Fallback: constEstimator(7),
			Deadline: 25 * time.Millisecond, Faults: faults,
		})
		ts := httptest.NewServer(h)
		defer ts.Close()
		resp, er, body := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
		if resp.StatusCode != 200 || !er.Degraded || er.CostSec != 7 {
			t.Fatalf("want 200 degraded fallback, got %d %s", resp.StatusCode, body)
		}
	})
	t.Run("fail-policy", func(t *testing.T) {
		h := newTestHandler(t, Config{
			Deep: constEstimator(42), Fallback: constEstimator(7),
			Deadline: 25 * time.Millisecond, OnDeadline: FailOnDeadline, Faults: faults,
		})
		ts := httptest.NewServer(h)
		defer ts.Close()
		resp, _, body := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("want 504, got %d %s", resp.StatusCode, body)
		}
	})
}

// TestHTTPOverloadIs429 is the third acceptance clause: queue overflow
// answers 429 instead of accepting unbounded work.
func TestHTTPOverloadIs429(t *testing.T) {
	release := make(chan struct{})
	h := newTestHandler(t, Config{
		Deep:        blockingEstimator(release),
		Concurrency: 1,
		QueueDepth:  0, // no queue: second request must bounce
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, _, _ := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
		first <- resp.StatusCode
	}()
	waitFor(t, func() bool { return h.srv.Inflight() == 1 })

	resp, _, body := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d %s", resp.StatusCode, body)
	}
	close(release)
	if code := <-first; code != 200 {
		t.Fatalf("admitted request should finish 200, got %d", code)
	}
}

// TestHTTPFaultPatternDeterministic replays a mixed fault workload twice
// under one seed: the per-request outcome sequence must match exactly and
// contain zero 5xx responses — "all deterministic under a fixed seed,
// with zero server crashes".
func TestHTTPFaultPatternDeterministic(t *testing.T) {
	run := func() []string {
		h := newTestHandler(t, Config{
			Deep:     constEstimator(42),
			Fallback: constEstimator(7),
			Deadline: 25 * time.Millisecond,
			Faults: &FaultConfig{
				Seed: 1234, PanicProb: 0.25, ErrorProb: 0.25,
				DelayProb: 0.2, Delay: time.Second,
			},
		})
		ts := httptest.NewServer(h)
		defer ts.Close()
		out := make([]string, 60)
		for i := range out {
			resp, er, body := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
			if resp.StatusCode >= 500 {
				t.Fatalf("request %d: server-side failure %d (%s)", i, resp.StatusCode, body)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, body)
			}
			out[i] = fmt.Sprintf("%v/%.0f", er.Degraded, er.CostSec)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome diverged at request %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestHTTPSelect(t *testing.T) {
	costs := map[string]float64{"a": 9, "b": 3, "c": 5}
	deep := func(_ context.Context, p *physical.Plan, _ sparksim.Resources) (float64, error) {
		return costs[p.Sig], nil
	}
	h := newTestHandler(t, Config{Deep: deep},
		&physical.Plan{Sig: "a"}, &physical.Plan{Sig: "b"}, &physical.Plan{Sig: "c"})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, er, body := postEstimate(t, ts, "/select", `{"sql":"SELECT 1"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	if er.PlanIndex != 1 || er.PlanSig != "b" || er.CostSec != 3 || er.Candidates != 3 {
		t.Fatalf("want plan b at 3s of 3 candidates, got %s", body)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	h := newTestHandler(t, Config{Deep: constEstimator(42)})
	ts := httptest.NewServer(h)
	defer ts.Close()

	for name, body := range map[string]string{
		"malformed json":    `{"sql": `,
		"missing sql":       `{}`,
		"unknown field":     `{"sql":"SELECT 1","bogus":true}`,
		"planner rejection": `{"sql":"bad sql"}`,
		"invalid resources": `{"sql":"SELECT 1","executors":-4}`,
	} {
		resp, _, respBody := postEstimate(t, ts, "/estimate", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: want 400, got %d (%s)", name, resp.StatusCode, respBody)
		}
	}
	// Wrong method on an estimation route.
	resp, err := http.Get(ts.URL + "/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /estimate: want 405, got %d", resp.StatusCode)
	}
}

func TestHTTPResourceOverrides(t *testing.T) {
	var seen sparksim.Resources
	deep := func(_ context.Context, _ *physical.Plan, res sparksim.Resources) (float64, error) {
		seen = res
		return 1, nil
	}
	h := newTestHandler(t, Config{Deep: deep})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, _, _ := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1","executors":4,"cores":1,"mem_mb":8192}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if seen.Executors != 4 || seen.ExecCores != 1 || seen.ExecMemMB != 8192 {
		t.Fatalf("overrides not applied: %+v", seen)
	}
	def := sparksim.DefaultResources()
	if seen.NetMBps != def.NetMBps || seen.Nodes != def.Nodes {
		t.Fatalf("unset fields should keep defaults: %+v", seen)
	}
}

// TestHTTPLifecycle covers the health endpoints and graceful shutdown:
// readiness flips to 503 the moment Shutdown starts, in-flight requests
// complete, and new estimation calls are turned away.
func TestHTTPLifecycle(t *testing.T) {
	release := make(chan struct{})
	h := newTestHandler(t, Config{Deep: blockingEstimator(release), Concurrency: 2})
	ts := httptest.NewServer(h)
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if get("/healthz") != 200 || get("/readyz") != 200 {
		t.Fatal("fresh server should be live and ready")
	}

	inflight := make(chan int, 1)
	go func() {
		resp, _, _ := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
		inflight <- resp.StatusCode
	}()
	waitFor(t, func() bool { return h.srv.Inflight() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		shutdownDone <- h.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return get("/readyz") == http.StatusServiceUnavailable })
	if get("/healthz") != 200 {
		t.Fatal("liveness must hold during drain")
	}
	if resp, _, _ := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server should 503 new estimates, got %d", resp.StatusCode)
	}

	close(release)
	if code := <-inflight; code != 200 {
		t.Fatalf("in-flight request should drain to 200, got %d", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestHTTPNonFinitePrediction: a NaN or ±Inf deep prediction is a deep
// failure — degraded fallback answer when there is one, typed 500 when
// there is not — never a 200 whose body the JSON encoder refused to
// write; /select ranks the finite costs only.
func TestHTTPNonFinitePrediction(t *testing.T) {
	plans := []*physical.Plan{{Sig: "p0"}, {Sig: "p1"}, {Sig: "p2"}}
	batch := func(costs ...float64) BatchEstimateFunc {
		return func(context.Context, []*physical.Plan, sparksim.Resources) ([]float64, error) {
			return costs, nil
		}
	}
	nan := math.NaN()

	t.Run("estimate-with-fallback", func(t *testing.T) {
		ts := httptest.NewServer(newTestHandler(t, Config{Deep: constEstimator(nan), Fallback: constEstimator(7)}))
		defer ts.Close()
		resp, er, body := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
		if resp.StatusCode != 200 || !er.Degraded || er.Source != "fallback" || er.CostSec != 7 {
			t.Fatalf("want 200 degraded fallback at 7, got %d %s", resp.StatusCode, body)
		}
		if !strings.Contains(er.Reason, "no finite prediction") {
			t.Fatalf("reason %q should name the non-finite prediction", er.Reason)
		}
	})
	t.Run("estimate-no-fallback", func(t *testing.T) {
		ts := httptest.NewServer(newTestHandler(t, Config{Deep: constEstimator(math.Inf(1))}))
		defer ts.Close()
		resp, _, body := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
		var er ErrorResponse
		if err := json.Unmarshal([]byte(body), &er); err != nil {
			t.Fatalf("status %d with undecodable body %q: %v", resp.StatusCode, body, err)
		}
		if resp.StatusCode != 500 || !strings.Contains(er.Error, ErrInternal.Error()) {
			t.Fatalf("want typed 500, got %d %s", resp.StatusCode, body)
		}
	})
	t.Run("select-ranks-finite-only", func(t *testing.T) {
		ts := httptest.NewServer(newTestHandler(t,
			Config{Deep: constEstimator(1), DeepBatch: batch(nan, 2, 1), Fallback: constEstimator(7)}, plans...))
		defer ts.Close()
		resp, er, body := postEstimate(t, ts, "/select", `{"sql":"SELECT 1"}`)
		if resp.StatusCode != 200 || er.Degraded || er.PlanIndex != 2 || er.CostSec != 1 || er.PlanSig != "p2" {
			t.Fatalf("want plan 2 at cost 1 from the model, got %d %s", resp.StatusCode, body)
		}
	})
	t.Run("select-none-finite", func(t *testing.T) {
		ts := httptest.NewServer(newTestHandler(t,
			Config{Deep: constEstimator(1), DeepBatch: batch(nan, math.Inf(-1), nan), Fallback: constEstimator(7)}, plans...))
		defer ts.Close()
		resp, er, body := postEstimate(t, ts, "/select", `{"sql":"SELECT 1"}`)
		if resp.StatusCode != 200 || !er.Degraded || er.CostSec != 7 || er.Candidates != 3 {
			t.Fatalf("want the set priced by the fallback, got %d %s", resp.StatusCode, body)
		}
	})
}
