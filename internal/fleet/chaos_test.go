package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	// has no fallback, so those surface as real 500s at the router.
	faulty := &serve.FaultConfig{Seed: 42, ErrorProb: 0.5, PanicProb: 0.2}
	reps := []*chaosReplica{
		newChaosReplica(t, "r0", nil),
		newChaosReplica(t, "r1", faulty),
		newChaosReplica(t, "r2", nil),
	}
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg, []string{"r0", "r1", "r2"})
	router, err := New(Config{
		Replicas: []Replica{
			{ID: "r0", URL: reps[0].ts.URL},
			{ID: "r1", URL: reps[1].ts.URL},
			{ID: "r2", URL: reps[2].ts.URL},
		},
		Planner:          testPlanner,
		HealthInterval:   20 * time.Millisecond,
		DownAfter:        2,
		UpAfter:          1,
		RetryAttempts:    2,
		AttemptTimeout:   2 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		HedgeAfter:       50 * time.Millisecond,
		Seed:             7,
		Metrics:          met,
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
	t.Logf("served %d: %d deep, %d degraded; retries=%v failovers=%v sheds=%v breakerOpens(r1)=%v rebalances=%v",
		total, deep.Load(), degraded.Load(),
		met.Retries.Value(), met.Failovers.Value(), met.BreakerSheds.Value(),
		met.BreakerOpens.With("r1").Value(), met.Rebalances.Value())

	// The chaos must have been visible: the faulty replica forced
	// retries/failovers, and the killed replica left the routable set.
	if met.Retries.Value() == 0 && met.Failovers.Value() == 0 {
		t.Fatal("fault injection produced no retries or failovers — the schedule did not exercise the fleet")
	}
	if met.Requests.With("estimate").Value() != uint64(total) {
		t.Fatalf("router counted %v requests, want %d", met.Requests.With("estimate").Value(), total)
	}
	// Hedge accounting closes: every fired hedge resolved as won or lost.
	fired, won, lost := met.Hedges.With("fired").Value(), met.Hedges.With("won").Value(), met.Hedges.With("lost").Value()
	if fired != won+lost {
		t.Fatalf("hedge accounting leak: fired=%v won=%v lost=%v", fired, won, lost)
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

// TestChaosDrainDuringHedge covers the nastiest lifecycle interleaving:
// a replica holds the losing half of a hedged pair (its deep path is
// stalled by an injected delay), and enters drain before that attempt
// resolves. The caller must get exactly one answer, the drain must
// complete, and nothing may leak.
func TestChaosDrainDuringHedge(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// The slow replica stalls every deep call 300ms (context-aware, like
	// a cooperative slow model); the fast one answers immediately.
	slow := newChaosReplica(t, "slow", &serve.FaultConfig{Seed: 1, DelayProb: 1, Delay: 300 * time.Millisecond})
	fast := newChaosReplica(t, "fast", nil)

	reg := telemetry.NewRegistry()
	met := NewMetrics(reg, []string{"slow", "fast"})
	router, err := New(Config{
		Replicas: []Replica{
			{ID: "slow", URL: slow.ts.URL},
			{ID: "fast", URL: fast.ts.URL},
		},
		Planner:        testPlanner,
		HealthInterval: 20 * time.Millisecond,
		RetryAttempts:  1,
		AttemptTimeout: 2 * time.Second,
		HedgeAfter:     20 * time.Millisecond,
		Seed:           3,
		Metrics:        met,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(router)

	// Find a key the slow replica owns, so the hedge (not the primary)
	// must win. Probe ownership via the ring directly — no traffic yet.
	sql := ""
	for k := 0; ; k++ {
		candidate := fmt.Sprintf("q%d", k)
		if ringOwner(t, router, candidate) == "slow" {
			sql = candidate
			break
		}
	}

	type answer struct {
		status int
		er     serve.EstimateResponse
		err    error
	}
	got := make(chan answer, 2) // room for a double-complete to show up
	body, _ := json.Marshal(serve.EstimateRequest{SQL: sql})
	go func() {
		resp, err := http.Post(rs.URL+"/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			got <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		var er serve.EstimateResponse
		derr := json.NewDecoder(resp.Body).Decode(&er)
		got <- answer{status: resp.StatusCode, er: er, err: derr}
	}()

	// Wait until the hedge has actually fired (the slow replica now holds
	// the doomed primary attempt), then drain the slow replica while that
	// attempt is still in flight.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && met.Hedges.With("fired").Value() == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if met.Hedges.With("fired").Value() == 0 {
		t.Fatal("hedge never fired")
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := slow.handler.Shutdown(drainCtx); err != nil {
		t.Fatalf("drain did not complete while holding a losing hedge: %v", err)
	}

	a := <-got
	if a.err != nil {
		t.Fatalf("caller lost its request: %v", a.err)
	}
	if a.status != http.StatusOK || a.er.Degraded {
		t.Fatalf("answer = status %d %+v, want a clean deep estimate from the hedge", a.status, a.er)
	}
	if won := met.Hedges.With("won").Value(); won != 1 {
		t.Fatalf("hedge won = %v, want 1 (the stalled primary must lose)", won)
	}

	// Exactly one completion: nothing else may arrive on the channel.
	select {
	case extra := <-got:
		t.Fatalf("caller's future completed twice: %+v", extra)
	case <-time.After(100 * time.Millisecond):
	}

	// Tear everything down and require the goroutine census to return to
	// the baseline — a leaked hedge loser or probe loop fails this.
	rs.Close()
	router.Close()
	slow.ts.Close()
	fast.ts.Close()
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
