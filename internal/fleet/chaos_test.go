package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raal/internal/physical"
	"raal/internal/serve"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
)

// chaosReplica is a real serve stack (admission, panic isolation,
// drain) behind an httptest listener — the router is exercised against
// the genuine replica surface, not a scripted stub.
type chaosReplica struct {
	id      string
	srv     *serve.Server
	handler *serve.Handler
	ts      *httptest.Server
}

func newChaosReplica(t *testing.T, id string, faults *serve.FaultConfig) *chaosReplica {
	t.Helper()
	srv, err := serve.New(serve.Config{
		Deep: func(_ context.Context, p *physical.Plan, _ sparksim.Resources) (float64, error) {
			return 2.0, nil
		},
		Concurrency: 4,
		QueueDepth:  16,
		Faults:      faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := serve.NewHandler(srv, serve.HTTPConfig{Planner: testPlanner})
	if err != nil {
		t.Fatal(err)
	}
	return &chaosReplica{id: id, srv: srv, handler: h, ts: httptest.NewServer(h)}
}

// TestChaosFleetZeroLoss drives a closed-loop workload through a
// 3-replica fleet while one replica fault-injects (seeded, replayable)
// and another is killed mid-run. The invariant under test: zero lost
// requests — every single response is a deep estimate, a degraded:true
// analytical estimate, or a typed error; never a hang, a dropped
// connection surfaced to the caller, or an empty body.
func TestChaosFleetZeroLoss(t *testing.T) {
	// r1 fault-injects: half its deep calls error, a fifth panic, and it
	// has no fallback, so those surface as real 500s at the router. Its
	// readyz stays green, so only request outcomes can take it down.
	faulty := &serve.FaultConfig{Seed: 42, ErrorProb: 0.5, PanicProb: 0.2}
	reps := []*chaosReplica{
		newChaosReplica(t, "r0", nil),
		newChaosReplica(t, "r1", faulty),
		newChaosReplica(t, "r2", nil),
	}
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg, []string{"r0", "r1", "r2"})
	moves := &transitionLog{}
	router, err := New(Config{
		Replicas: []Replica{
			{ID: "r0", URL: reps[0].ts.URL},
			{ID: "r1", URL: reps[1].ts.URL},
			{ID: "r2", URL: reps[2].ts.URL},
		},
		Planner:        testPlanner,
		HealthInterval: 20 * time.Millisecond,
		// A probe of a loaded replica under the race detector can take
		// longer than the 20ms interval; it must not count as a failure.
		ProbeTimeout:   2 * time.Second,
		AttemptTimeout: 2 * time.Second,
		Metrics:        met,
		Logger:         slog.New(moves),
		Fallback: func(_ context.Context, p *physical.Plan, _ sparksim.Resources) (float64, error) {
			return 9.0, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(router)
	defer func() {
		rs.Close()
		router.Close()
		for _, r := range reps {
			r.ts.Close()
		}
	}()

	const (
		clients    = 8
		perClient  = 25
		total      = clients * perClient
		killAfter  = total / 2
		distinctQs = 40
	)
	var (
		sent      atomic.Int64
		deep      atomic.Int64
		degraded  atomic.Int64
		killOnce  sync.Once
		transport atomic.Int64 // caller-visible transport failures: must stay 0
		bad       atomic.Int64 // undecodable or non-200 responses: must stay 0
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				n := sent.Add(1)
				if n == killAfter {
					// Hard-kill a healthy replica mid-run: its keys must
					// fail over with zero caller-visible loss.
					killOnce.Do(func() { reps[2].ts.CloseClientConnections(); reps[2].ts.Close() })
				}
				sql := fmt.Sprintf("q%d", (c*perClient+i)%distinctQs)
				body, _ := json.Marshal(serve.EstimateRequest{SQL: sql})
				resp, err := http.Post(rs.URL+"/estimate", "application/json", bytes.NewReader(body))
				if err != nil {
					transport.Add(1)
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					bad.Add(1)
					t.Errorf("client %d req %d: status %d body %s", c, i, resp.StatusCode, raw)
					continue
				}
				var er serve.EstimateResponse
				if jsonErr := json.Unmarshal(raw, &er); jsonErr != nil || er.CostSec <= 0 {
					bad.Add(1)
					t.Errorf("client %d req %d: bad body %q (%v)", c, i, raw, jsonErr)
					continue
				}
				if er.Degraded {
					degraded.Add(1)
				} else {
					deep.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	if transport.Load() != 0 {
		t.Fatalf("%d requests lost to transport errors — the router must absorb replica failures", transport.Load())
	}
	if bad.Load() != 0 {
		t.Fatalf("%d bad responses", bad.Load())
	}
	if deep.Load()+degraded.Load() != total {
		t.Fatalf("answered %d+%d of %d", deep.Load(), degraded.Load(), total)
	}
	if deep.Load() == 0 {
		t.Fatal("no deep answers at all — the healthy replicas were not used")
	}
	t.Logf("served %d: %d deep, %d degraded; retries=%v failovers=%v r1 down %d time(s), probe failures %v; rebalances=%v",
		total, deep.Load(), degraded.Load(), met.Retries.Value(), met.Failovers.Value(),
		moves.count("r1", "down"), met.ProbeFailures.With("r1").Value(), met.Rebalances.Value())

	// The chaos must have been visible: the faulty replica forced
	// retries/failovers, and the killed replica left the routable set.
	if met.Retries.Value() == 0 && met.Failovers.Value() == 0 {
		t.Fatal("fault injection produced no retries or failovers — the schedule did not exercise the fleet")
	}
	// r1's probes all passed, so its trips out of rotation were request
	// outcomes at work.
	if n := moves.count("r1", "down"); n == 0 {
		t.Fatal("r1 never left rotation although its requests kept failing")
	}
	if n := met.ProbeFailures.With("r1").Value(); n != 0 {
		t.Fatalf("r1 failed %d readyz probe(s), want 0: its faults are in the deep path only", n)
	}
	if met.Requests.With("estimate").Value() != uint64(total) {
		t.Fatalf("router counted %v requests, want %d", met.Requests.With("estimate").Value(), total)
	}
	// The killed replica must eventually be marked down.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && router.replicas["r2"].health.State().Routable() {
		time.Sleep(10 * time.Millisecond)
	}
	if router.replicas["r2"].health.State().Routable() {
		t.Fatal("killed replica still routable after the hysteresis window")
	}
	if met.Rebalances.Value() == 0 {
		t.Fatal("killing a replica must register a rebalance")
	}
}

// requireGoroutineCensus fails t unless, once everything the test started
// is torn down, the goroutine count returns to within 2 of baseline — a
// leaked hedge loser or probe loop fails it.
func requireGoroutineCensus(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// censusedFleet is newFleet whose goroutine census runs after the fleet's
// own cleanup has torn it down.
func censusedFleet(t *testing.T, n int, mutate func(*Config)) *fleetUnderTest {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		requireGoroutineCensus(t, baseline)
	})
	return newFleet(t, n, mutate)
}

// hold is a stub mode for /estimate that reads the body, as a real
// replica does (only then does the server watch the connection, whose
// closing cancels the handler's context), signals arrived, and holds the
// request until the router cancels it, then signals cancelled. Both
// channels want a buffer of one; a second signal is dropped.
func hold(arrived, cancelled chan<- struct{}) func(http.ResponseWriter, *http.Request) bool {
	signal := func(ch chan<- struct{}) {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	return func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/readyz" {
			return false
		}
		io.Copy(io.Discard, r.Body)
		signal(arrived)
		<-r.Context().Done()
		signal(cancelled)
		return true
	}
}

// waitFor waits for an event on ch, failing t after 5s.
func waitFor(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestChaosCallerCancels: the caller gives up while its attempt is held
// by the key's owner. It gets a 408, the owner's request is cancelled
// rather than held until its AttemptTimeout, the router fails over to no
// other replica and counts nothing against the owner, and nothing is left
// running.
func TestChaosCallerCancels(t *testing.T) {
	const attemptTimeout = 5 * time.Second
	f := censusedFleet(t, 2, func(cfg *Config) { cfg.AttemptTimeout = attemptTimeout })
	owner := f.findOwner(t, "abandoned")
	arrived, cancelled := make(chan struct{}, 1), make(chan struct{}, 1)
	owner.setMode(hold(arrived, cancelled))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(serve.EstimateRequest{SQL: "abandoned"})
	req := httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.router.ServeHTTP(rec, req)
	}()
	waitFor(t, "the attempt to reach the owner", arrived)
	start := time.Now()
	cancel()
	waitFor(t, "the router to return after its caller cancelled", done)
	if elapsed := time.Since(start); elapsed >= attemptTimeout/2 {
		t.Fatalf("the router returned %v after its caller left: the attempt was held until its timeout, not cancelled", elapsed)
	}
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status %d %s, want 408", rec.Code, rec.Body)
	}
	waitFor(t, "the owner's request to be cancelled", cancelled)
	if n := f.met.Failovers.Value(); n != 0 || f.moves.count(owner.id, "") != 0 {
		t.Fatalf("%d failover(s), %d owner transition(s): a caller that left is no replica's failure",
			n, f.moves.count(owner.id, ""))
	}
}
