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
	"strings"
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
		RetryAttempts:  2,
		AttemptTimeout: 2 * time.Second,
		HedgeAfter:     50 * time.Millisecond,
		Seed:           7,
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

	rs.Close()
	router.Close()
	slow.ts.Close()
	fast.ts.Close()
	requireGoroutineCensus(t, baseline)
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

// hedgedFleet is a two-stub-replica fleet with a fixed 20ms hedge
// trigger, plus the owner of sql (the primary chain's first replica) and
// the other replica (where the hedge chain starts). The goroutine census
// runs after the fleet's own cleanup has torn it down.
func hedgedFleet(t *testing.T, sql string, mutate func(*Config)) (f *fleetUnderTest, owner, other *stubReplica) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		requireGoroutineCensus(t, baseline)
	})
	f = newFleet(t, 2, func(cfg *Config) {
		cfg.HedgeAfter = 20 * time.Millisecond
		cfg.RetryAttempts = 1
		if mutate != nil {
			mutate(cfg)
		}
	})
	owner = f.findOwner(t, sql)
	other = f.replicas[0]
	if other == owner {
		other = f.replicas[1]
	}
	return f, owner, other
}

// requireHedgeCounts checks the hedge counters against want, and that
// they close: fired == won + lost.
func requireHedgeCounts(t *testing.T, met *Metrics, fired, won, lost uint64) {
	t.Helper()
	f, w, l := met.Hedges.With("fired").Value(), met.Hedges.With("won").Value(), met.Hedges.With("lost").Value()
	if f != w+l {
		t.Fatalf("hedge accounting leak: fired=%v won=%v lost=%v", f, w, l)
	}
	if f != fired || w != won || l != lost {
		t.Fatalf("hedges fired=%v won=%v lost=%v, want %v/%v/%v", f, w, l, fired, won, lost)
	}
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

// after is a stub mode for /estimate that waits for signal (or the
// request's cancellation, answering nothing), then runs answer.
func after(signal <-chan struct{}, answer func(http.ResponseWriter) bool) func(http.ResponseWriter, *http.Request) bool {
	return func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/readyz" {
			return false
		}
		select {
		case <-signal:
			return answer(w)
		case <-r.Context().Done():
			return true
		}
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

// TestChaosHedgePrimaryAnswersAfterFire: the primary answers once the
// hedge has fired and reached its replica. The primary's answer is the
// caller's, the hedge counts lost, and its request is cancelled rather
// than held until its AttemptTimeout.
func TestChaosHedgePrimaryAnswersAfterFire(t *testing.T) {
	const attemptTimeout = 5 * time.Second
	f, owner, other := hedgedFleet(t, "late", func(cfg *Config) { cfg.AttemptTimeout = attemptTimeout })
	hedged, hedgeCancelled := make(chan struct{}, 1), make(chan struct{}, 1)
	other.setMode(hold(hedged, hedgeCancelled))
	owner.setMode(after(hedged, func(http.ResponseWriter) bool { return false })) // the stub's 200

	start := time.Now()
	status, er, rep := f.estimate(t, "late")
	if elapsed := time.Since(start); elapsed >= attemptTimeout/2 {
		t.Fatalf("request took %v: the losing hedge was held until its timeout, not cancelled", elapsed)
	}
	if status != http.StatusOK || er.Degraded || rep != owner.id {
		t.Fatalf("status %d from %q %+v, want the primary's clean answer", status, rep, er)
	}
	requireHedgeCounts(t, f.met, 1, 0, 1)
	waitFor(t, "the losing hedge's request to be cancelled", hedgeCancelled)
}

// TestChaosHedgeBothChainsFail: the hedge fails while the primary still
// runs, then the primary fails too. The caller gets the degraded answer
// for the primary's error, not the hedge's.
func TestChaosHedgeBothChainsFail(t *testing.T) {
	f, owner, other := hedgedFleet(t, "doomed", func(cfg *Config) {
		cfg.Fallback = func(context.Context, *physical.Plan, sparksim.Resources) (float64, error) {
			return 7.5, nil
		}
	})
	// The hedge reaches the other replica first and gets a 502. Only then
	// does the owner fail the primary, which fails over to the other
	// replica and gets a 504, so the two chains' errors differ.
	hedged := make(chan struct{})
	var otherHits atomic.Int64
	other.setMode(func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/readyz" {
			return false
		}
		if otherHits.Add(1) == 1 {
			w.WriteHeader(http.StatusBadGateway)
			close(hedged)
		} else {
			w.WriteHeader(http.StatusGatewayTimeout)
		}
		return true
	})
	owner.setMode(after(hedged, func(w http.ResponseWriter) bool {
		w.WriteHeader(http.StatusInternalServerError)
		return true
	}))

	status, er, _ := f.estimate(t, "doomed")
	if status != http.StatusOK || !er.Degraded || er.CostSec != 7.5 {
		t.Fatalf("status %d %+v, want the degraded fallback answer", status, er)
	}
	if want := fmt.Sprintf("replica %s: HTTP 504", other.id); !strings.Contains(er.Reason, want) ||
		!strings.Contains(er.Reason, ErrAllFailed.Error()) {
		t.Fatalf("reason %q, want the primary chain's error (%q), not the hedge's 502", er.Reason, want)
	}
	if otherHits.Load() != 2 {
		t.Fatalf("other replica hit %d times, want 2 (hedge, then the primary's failover)", otherHits.Load())
	}
	requireHedgeCounts(t, f.met, 1, 0, 1)
}

// TestChaosHedgeCallerCancels: the caller gives up while both chains are
// held. It gets a 408, both replica requests are cancelled, the fired
// hedge counts lost, and nothing is left running.
func TestChaosHedgeCallerCancels(t *testing.T) {
	f, owner, other := hedgedFleet(t, "abandoned", nil)
	primary, primaryCancelled := make(chan struct{}, 1), make(chan struct{}, 1)
	hedged, hedgeCancelled := make(chan struct{}, 1), make(chan struct{}, 1)
	owner.setMode(hold(primary, primaryCancelled))
	other.setMode(hold(hedged, hedgeCancelled))

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
	waitFor(t, "the primary to reach its replica", primary)
	waitFor(t, "the hedge to fire and reach its replica", hedged)
	cancel()
	waitFor(t, "the router to return after its caller cancelled", done)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status %d %s, want 408", rec.Code, rec.Body)
	}
	requireHedgeCounts(t, f.met, 1, 0, 1)
	waitFor(t, "the primary's request to be cancelled", primaryCancelled)
	waitFor(t, "the hedge's request to be cancelled", hedgeCancelled)
}
