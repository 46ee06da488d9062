package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raal/internal/physical"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
	"raal/internal/telemetry/promtest"
)

// scrape fetches and returns the /metrics body.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestHTTPBodyTooLargeIs413 is the request-bounding satellite: a payload
// over MaxBodyBytes must answer a typed 413, never reach the JSON
// decoder, and never be mistaken for a plain 400.
func TestHTTPBodyTooLargeIs413(t *testing.T) {
	s := mustServer(t, Config{Deep: constEstimator(42)})
	h, err := NewHandler(s, HTTPConfig{
		Planner:      stubPlanner(&physical.Plan{Sig: "p"}),
		MaxBodyBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	big := fmt.Sprintf(`{"sql":%q}`, strings.Repeat("SELECT ", 200))
	resp, _, body := postEstimate(t, ts, "/estimate", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, "256 byte limit") {
		t.Fatalf("413 body should name the limit, got %s", body)
	}

	// A small body on the same handler still works.
	resp, er, _ := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
	if resp.StatusCode != 200 || er.CostSec != 42 {
		t.Fatalf("small body after 413: status %d, %+v", resp.StatusCode, er)
	}
}

// TestMetricsUnderWorkload is the acceptance-criteria test: /metrics
// emits valid Prometheus text including the serve queue depth, the
// degraded-fallback count, and a predict-latency histogram — and the
// values provably move under a live workload.
func TestMetricsUnderWorkload(t *testing.T) {
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)

	gate := make(chan struct{})
	var failDeep atomic.Bool
	deep := func(ctx context.Context, _ *physical.Plan, _ sparksim.Resources) (float64, error) {
		if failDeep.Load() {
			return 0, errors.New("deep model detonated")
		}
		select {
		case <-gate:
			return 42, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	s := mustServer(t, Config{
		Deep:        deep,
		Fallback:    constEstimator(7),
		Concurrency: 1,
		QueueDepth:  8,
		Metrics:     met,
	})
	h, err := NewHandler(s, HTTPConfig{
		Planner: stubPlanner(&physical.Plan{Sig: "p"}),
		Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Phase 1 — fill the single slot and queue two more requests, then
	// scrape while they wait: queue depth and inflight must be visible.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, er, body := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
			if resp.StatusCode != 200 || er.CostSec != 42 {
				t.Errorf("workload request failed: %d %s", resp.StatusCode, body)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for met.Queue.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth=%g inflight=%g", met.Queue.Value(), met.Inflight.Value())
		}
		time.Sleep(time.Millisecond)
	}
	body := scrape(t, ts)
	promtest.Validate(t, body)
	if got := promtest.Value(t, body, "raal_serve_queue_depth", ""); got != 2 {
		t.Fatalf("queue depth = %g, want 2\n%s", got, body)
	}
	if got := promtest.Value(t, body, "raal_serve_inflight_requests", ""); got != 3 {
		t.Fatalf("inflight = %g, want 3", got)
	}
	close(gate) // drain the workload
	wg.Wait()

	// Phase 2 — break the deep model: the answer degrades to the
	// fallback and the degraded counter moves.
	failDeep.Store(true)
	resp, er, rbody := postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
	if resp.StatusCode != 200 || !er.Degraded || er.Source != "fallback" {
		t.Fatalf("degraded request: %d %s", resp.StatusCode, rbody)
	}

	body = scrape(t, ts)
	promtest.Validate(t, body)
	promtest.HistogramCumulative(t, body, "raal_serve_predict_seconds")
	promtest.HistogramCumulative(t, body, "raal_serve_http_request_seconds")
	if got := promtest.Value(t, body, "raal_serve_degraded_fallbacks_total", ""); got != 1 {
		t.Fatalf("degraded fallbacks = %g, want 1", got)
	}
	if got := promtest.Value(t, body, "raal_serve_queue_depth", ""); got != 0 {
		t.Fatalf("queue depth after drain = %g, want 0", got)
	}
	if got := promtest.Value(t, body, "raal_serve_inflight_requests", ""); got != 0 {
		t.Fatalf("inflight after drain = %g, want 0", got)
	}
	// All four served answers (3 deep + 1 fallback) must land in the
	// predict-latency histogram, and the per-endpoint HTTP metrics must
	// agree.
	if got := promtest.Value(t, body, "raal_serve_predict_seconds_count", ""); got != 4 {
		t.Fatalf("predict latency count = %g, want 4", got)
	}
	if got := promtest.Value(t, body, "raal_serve_http_requests_total", `endpoint="estimate"`); got != 4 {
		t.Fatalf("estimate requests = %g, want 4", got)
	}
	if got := promtest.Value(t, body, "raal_serve_http_responses_total", `code="200"`); got != 4 {
		t.Fatalf("200 responses = %g, want 4", got)
	}
}

// TestMetricsAdmissionAndFaults checks the rejection and fault-injection
// counters: a full queue increments admission rejects (the 429 path) and
// deterministic faults are tallied by kind.
func TestMetricsAdmissionAndFaults(t *testing.T) {
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)
	gate := make(chan struct{})
	deep := func(ctx context.Context, _ *physical.Plan, _ sparksim.Resources) (float64, error) {
		select {
		case <-gate:
			return 1, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	s := mustServer(t, Config{Deep: deep, Concurrency: 1, QueueDepth: 0, Metrics: met})

	// Occupy the only slot, then overflow.
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Estimate(context.Background(), &physical.Plan{}, sparksim.Resources{})
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for met.Inflight.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Estimate(context.Background(), &physical.Plan{}, sparksim.Resources{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow error = %v, want ErrOverloaded", err)
	}
	if met.AdmissionRejects.Value() != 1 {
		t.Fatalf("admission rejects = %d, want 1", met.AdmissionRejects.Value())
	}
	close(gate)
	if err := <-errCh; err != nil {
		t.Fatalf("gated request: %v", err)
	}

	// Draining rejections have their own counter.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Estimate(context.Background(), &physical.Plan{}, sparksim.Resources{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining error = %v", err)
	}
	if met.DrainRejects.Value() != 1 {
		t.Fatalf("drain rejects = %d, want 1", met.DrainRejects.Value())
	}

	// Fault kinds are tallied: every request injects an error fault.
	reg2 := telemetry.NewRegistry()
	met2 := NewMetrics(reg2)
	s2 := mustServer(t, Config{
		Deep: constEstimator(1), Fallback: constEstimator(2),
		Faults:  &FaultConfig{Seed: 1, ErrorProb: 1},
		Metrics: met2,
	})
	for i := 0; i < 3; i++ {
		r, err := s2.Estimate(context.Background(), &physical.Plan{}, sparksim.Resources{})
		if err != nil || !r.Degraded {
			t.Fatalf("faulted request %d: %+v err=%v", i, r, err)
		}
	}
	if met2.Faults.With("error").Value() != 3 {
		t.Fatalf("error faults = %d, want 3", met2.Faults.With("error").Value())
	}
	if met2.Degraded.Value() != 3 {
		t.Fatalf("degraded = %d, want 3", met2.Degraded.Value())
	}
}

// TestMetricsDeadlineExpiries checks that a missed deadline moves the
// expiry counter under both deadline policies.
func TestMetricsDeadlineExpiries(t *testing.T) {
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)
	slow := func(ctx context.Context, _ *physical.Plan, _ sparksim.Resources) (float64, error) {
		select {
		case <-time.After(5 * time.Second):
			return 1, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	s := mustServer(t, Config{
		Deep: slow, Fallback: constEstimator(2),
		Deadline: 5 * time.Millisecond, OnDeadline: FallbackOnDeadline,
		Metrics: met,
	})
	r, err := s.Estimate(context.Background(), &physical.Plan{}, sparksim.Resources{})
	if err != nil || !r.Degraded {
		t.Fatalf("deadline miss should degrade: %+v err=%v", r, err)
	}
	if met.DeadlineExpiries.Value() != 1 {
		t.Fatalf("deadline expiries = %d, want 1", met.DeadlineExpiries.Value())
	}
}

// TestHTTPRequestLogging checks the structured slog line per request.
func TestHTTPRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	s := mustServer(t, Config{Deep: constEstimator(42)})
	h, err := NewHandler(s, HTTPConfig{
		Planner: stubPlanner(&physical.Plan{Sig: "p"}),
		Logger:  logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	postEstimate(t, ts, "/estimate", `{"sql":"SELECT 1"}`)
	postEstimate(t, ts, "/estimate", `not json`)
	logs := buf.String()
	if !strings.Contains(logs, `endpoint=estimate`) || !strings.Contains(logs, `status=200`) {
		t.Fatalf("missing success log line:\n%s", logs)
	}
	if !strings.Contains(logs, `level=WARN`) || !strings.Contains(logs, `status=400`) {
		t.Fatalf("missing warn log line for the 400:\n%s", logs)
	}
}

// TestMetricsEndpointAbsentWithoutRegistry: a handler wired without
// metrics must 404 /metrics rather than exposing an empty page.
func TestMetricsEndpointAbsentWithoutRegistry(t *testing.T) {
	h := newTestHandler(t, Config{Deep: constEstimator(1)})
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics without registry: status %d, want 404", resp.StatusCode)
	}
}
