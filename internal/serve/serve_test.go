package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"raal/internal/physical"
	"raal/internal/sparksim"
)

// stubs ------------------------------------------------------------------

func constEstimator(v float64) EstimateFunc {
	return func(context.Context, *physical.Plan, sparksim.Resources) (float64, error) {
		return v, nil
	}
}

func panicEstimator(msg string) EstimateFunc {
	return func(context.Context, *physical.Plan, sparksim.Resources) (float64, error) {
		panic(msg)
	}
}

func errEstimator(err error) EstimateFunc {
	return func(context.Context, *physical.Plan, sparksim.Resources) (float64, error) {
		return 0, err
	}
}

// blockingEstimator blocks until release is closed or the context ends —
// a model that is slow but cooperative.
func blockingEstimator(release <-chan struct{}) EstimateFunc {
	return func(ctx context.Context, _ *physical.Plan, _ sparksim.Resources) (float64, error) {
		select {
		case <-release:
			return 1, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// mustServer builds a server that is drained when the test ends, so no
// admitted request outlives its test (TestMain counts goroutines).
func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain at cleanup: %v", err)
		}
	})
	return s
}

var (
	testPlan = &physical.Plan{Sig: "test"}
	testRes  = sparksim.DefaultResources()
)

// tests ------------------------------------------------------------------

func TestEstimateHappyPath(t *testing.T) {
	s := mustServer(t, Config{Deep: constEstimator(42), Fallback: constEstimator(7)})
	r, err := s.Estimate(context.Background(), testPlan, testRes)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 42 || r.Degraded || r.Source != "model" {
		t.Fatalf("want healthy deep answer, got %+v", r)
	}
}

func TestFallbackOnlyServer(t *testing.T) {
	s := mustServer(t, Config{Fallback: constEstimator(7)})
	r, err := s.Estimate(context.Background(), testPlan, testRes)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 7 || r.Degraded || r.Source != "analytic" {
		t.Fatalf("fallback-only server should answer untagged: %+v", r)
	}
}

// TestNewRejectsEmptyConfig: New refuses a config that leaves a request
// with nothing to answer it, or a batch scorer with no single-plan twin.
func TestNewRejectsEmptyConfig(t *testing.T) {
	batch := func(context.Context, []*physical.Plan, sparksim.Resources) ([]float64, error) { return nil, nil }
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"no estimator", Config{}},
		// With a Fallback, only the DeepBatch rule can refuse this one.
		{"DeepBatch without Deep", Config{DeepBatch: batch, Fallback: constEstimator(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Fatal("config should be rejected")
			}
		})
	}
}

func TestPanicDegradesToFallback(t *testing.T) {
	s := mustServer(t, Config{Deep: panicEstimator("boom: shape mismatch"), Fallback: constEstimator(7)})
	r, err := s.Estimate(context.Background(), testPlan, testRes)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded || r.Cost != 7 || r.Source != "fallback" {
		t.Fatalf("panic should degrade to fallback: %+v", r)
	}
	if !strings.Contains(r.Reason, "shape mismatch") {
		t.Fatalf("reason should carry the panic message, got %q", r.Reason)
	}
}

func TestPanicWithoutFallbackIsErrInternal(t *testing.T) {
	s := mustServer(t, Config{Deep: panicEstimator("boom")})
	_, err := s.Estimate(context.Background(), testPlan, testRes)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("want ErrInternal, got %v", err)
	}
	// …and the server must still answer afterwards (process survived,
	// slot released).
	if _, err := s.Estimate(context.Background(), testPlan, testRes); !errors.Is(err, ErrInternal) {
		t.Fatalf("second request after panic: %v", err)
	}
}

func TestErrorDegradesToFallback(t *testing.T) {
	s := mustServer(t, Config{Deep: errEstimator(errors.New("weights corrupt")), Fallback: constEstimator(7)})
	r, err := s.Estimate(context.Background(), testPlan, testRes)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded || r.Cost != 7 {
		t.Fatalf("deep error should degrade: %+v", r)
	}
}

func TestBothEstimatorsFailingReportsDeepError(t *testing.T) {
	deepErr := errors.New("deep down")
	s := mustServer(t, Config{Deep: errEstimator(deepErr), Fallback: errEstimator(errors.New("fb down"))})
	_, err := s.Estimate(context.Background(), testPlan, testRes)
	if !errors.Is(err, deepErr) {
		t.Fatalf("want the deep failure, got %v", err)
	}
}

func TestDeadlineFallback(t *testing.T) {
	s := mustServer(t, Config{
		Deep:     blockingEstimator(nil), // blocks until ctx expires
		Fallback: constEstimator(7),
		Deadline: 20 * time.Millisecond,
	})
	r, err := s.Estimate(context.Background(), testPlan, testRes)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded || r.Cost != 7 {
		t.Fatalf("deadline miss should degrade: %+v", r)
	}
	if !strings.Contains(r.Reason, "deadline") {
		t.Fatalf("reason should mention the deadline, got %q", r.Reason)
	}
}

func TestDeadlineFailPolicy(t *testing.T) {
	s := mustServer(t, Config{
		Deep:       blockingEstimator(nil),
		Fallback:   constEstimator(7),
		Deadline:   20 * time.Millisecond,
		OnDeadline: FailOnDeadline,
	})
	_, err := s.Estimate(context.Background(), testPlan, testRes)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("FailOnDeadline should surface ErrDeadline, got %v", err)
	}
}

func TestDeadlineNoFallbackIsErrDeadline(t *testing.T) {
	s := mustServer(t, Config{Deep: blockingEstimator(nil), Deadline: 20 * time.Millisecond})
	_, err := s.Estimate(context.Background(), testPlan, testRes)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
}

func TestCallerCancellationPropagates(t *testing.T) {
	s := mustServer(t, Config{Deep: blockingEstimator(nil), Fallback: constEstimator(7)})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := s.Estimate(ctx, testPlan, testRes)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("caller cancellation must not degrade, got %v", err)
	}
}

// TestOverloadRejects drives the admission machinery to saturation: one
// request holds the only slot, one waits in the queue, and the third must
// bounce with ErrOverloaded.
func TestOverloadRejects(t *testing.T) {
	release := make(chan struct{})
	s := mustServer(t, Config{
		Deep:        blockingEstimator(release),
		Concurrency: 1,
		QueueDepth:  1,
	})

	results := make(chan error, 2)
	go func() {
		_, err := s.Estimate(context.Background(), testPlan, testRes)
		results <- err
	}()
	waitFor(t, func() bool { return s.Inflight() == 1 })

	go func() {
		_, err := s.Estimate(context.Background(), testPlan, testRes)
		results <- err
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	// Slot busy, queue full: immediate 429-class rejection.
	if _, err := s.Estimate(context.Background(), testPlan, testRes); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
}

func TestQueuedRequestHonorsCancellation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := mustServer(t, Config{Deep: blockingEstimator(release), Concurrency: 1, QueueDepth: 4})

	go s.Estimate(context.Background(), testPlan, testRes)
	waitFor(t, func() bool { return s.Inflight() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Estimate(ctx, testPlan, testRes)
		errCh <- err
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued request should abort on cancel, got %v", err)
	}
	if got := s.queued.Load(); got != 0 {
		t.Fatalf("queue counter leaked: %d", got)
	}
}

func TestSelectPicksArgmin(t *testing.T) {
	costs := map[string]float64{"a": 9, "b": 3, "c": 5}
	deep := func(_ context.Context, p *physical.Plan, _ sparksim.Resources) (float64, error) {
		return costs[p.Sig], nil
	}
	s := mustServer(t, Config{Deep: deep})
	plans := []*physical.Plan{{Sig: "a"}, {Sig: "b"}, {Sig: "c"}}
	best, r, err := s.Select(context.Background(), plans, testRes)
	if err != nil {
		t.Fatal(err)
	}
	if best != 1 || r.Cost != 3 || r.Degraded {
		t.Fatalf("want argmin plan b (3s), got idx %d %+v", best, r)
	}
}

func TestSelectDegradesWholeSet(t *testing.T) {
	fb := func(_ context.Context, p *physical.Plan, _ sparksim.Resources) (float64, error) {
		if p.Sig == "cheap" {
			return 1, nil
		}
		return 10, nil
	}
	s := mustServer(t, Config{Deep: panicEstimator("dead"), Fallback: fb})
	plans := []*physical.Plan{{Sig: "pricey"}, {Sig: "cheap"}}
	best, r, err := s.Select(context.Background(), plans, testRes)
	if err != nil {
		t.Fatal(err)
	}
	if best != 1 || !r.Degraded || r.Cost != 1 {
		t.Fatalf("degraded select should still argmin over fallback: idx %d %+v", best, r)
	}
}

func TestSelectBatchLengthMismatchIsInternal(t *testing.T) {
	s := mustServer(t, Config{
		Deep: constEstimator(1),
		DeepBatch: func(_ context.Context, plans []*physical.Plan, _ sparksim.Resources) ([]float64, error) {
			return []float64{1}, nil // wrong length for 2 plans
		},
	})
	_, _, err := s.Select(context.Background(), []*physical.Plan{{}, {}}, testRes)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("short batch should be ErrInternal, got %v", err)
	}
}

func TestFaultDeterminism(t *testing.T) {
	f := &FaultConfig{Seed: 7, PanicProb: 0.3, ErrorProb: 0.2, DelayProb: 0.1}
	g := &FaultConfig{Seed: 7, PanicProb: 0.3, ErrorProb: 0.2, DelayProb: 0.1}
	diff := &FaultConfig{Seed: 8, PanicProb: 0.3, ErrorProb: 0.2, DelayProb: 0.1}
	var fires, diffFires int
	for i := uint64(1); i <= 2000; i++ {
		d1, e1, p1 := f.Fires(i)
		d2, e2, p2 := g.Fires(i)
		if d1 != d2 || e1 != e2 || p1 != p2 {
			t.Fatalf("same seed diverged at request %d", i)
		}
		if p1 {
			fires++
		}
		if _, _, p3 := diff.Fires(i); p3 {
			diffFires++
		}
	}
	// ~30% of 2000 requests should panic; require a loose band.
	if fires < 450 || fires > 750 {
		t.Fatalf("panic fault rate off: %d/2000 fired at prob 0.3", fires)
	}
	if fires == diffFires {
		// Counts colliding exactly across seeds is possible but the
		// patterns must differ; spot-check one index range.
		same := true
		for i := uint64(1); i <= 100; i++ {
			_, _, a := f.Fires(i)
			_, _, b := diff.Fires(i)
			if a != b {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced the same fault pattern")
		}
	}
}

// TestFaultInjectionDegradesDeterministically runs the same request
// sequence twice against fault-injected servers with one seed and asserts
// the degraded-response pattern replays exactly — the acceptance
// criterion's "deterministic under a fixed seed".
func TestFaultInjectionDegradesDeterministically(t *testing.T) {
	pattern := func() []bool {
		s := mustServer(t, Config{
			Deep:     constEstimator(42),
			Fallback: constEstimator(7),
			Faults:   &FaultConfig{Seed: 99, PanicProb: 0.5},
		})
		out := make([]bool, 50)
		for i := range out {
			r, err := s.Estimate(context.Background(), testPlan, testRes)
			if err != nil {
				t.Fatalf("request %d errored: %v", i, err)
			}
			out[i] = r.Degraded
			if r.Degraded && r.Cost != 7 {
				t.Fatalf("degraded answer must come from fallback, got %v", r.Cost)
			}
			if !r.Degraded && r.Cost != 42 {
				t.Fatalf("healthy answer must come from the model, got %v", r.Cost)
			}
		}
		return out
	}
	a, b := pattern(), pattern()
	var degraded int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault pattern diverged at request %d", i)
		}
		if a[i] {
			degraded++
		}
	}
	if degraded == 0 || degraded == len(a) {
		t.Fatalf("prob 0.5 should mix outcomes, got %d/%d degraded", degraded, len(a))
	}
}

func TestDrainRejectsNewAndWaitsForInflight(t *testing.T) {
	release := make(chan struct{})
	s := mustServer(t, Config{Deep: blockingEstimator(release), Concurrency: 2})

	done := make(chan error, 1)
	go func() {
		_, err := s.Estimate(context.Background(), testPlan, testRes)
		done <- err
	}()
	waitFor(t, func() bool { return s.Inflight() == 1 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, func() bool { return !s.Ready() })

	if _, err := s.Estimate(context.Background(), testPlan, testRes); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining server must reject new work, got %v", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain finished with a request in flight: %v", err)
	case <-time.After(30 * time.Millisecond):
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestDrainTimesOut(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := mustServer(t, Config{Deep: blockingEstimator(release), Concurrency: 1})
	go s.Estimate(context.Background(), testPlan, testRes)
	waitFor(t, func() bool { return s.Inflight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain should report the expired budget, got %v", err)
	}
}

// TestConcurrentRequestsRaceClean hammers a fault-injected server from
// many goroutines; run under -race (see `make race`).
func TestConcurrentRequestsRaceClean(t *testing.T) {
	s := mustServer(t, Config{
		Deep:        constEstimator(42),
		Fallback:    constEstimator(7),
		Concurrency: 4,
		QueueDepth:  64,
		Deadline:    time.Second,
		Faults:      &FaultConfig{Seed: 3, PanicProb: 0.2, ErrorProb: 0.2},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := s.Estimate(context.Background(), testPlan, testRes); err != nil {
					t.Errorf("request failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// waitFor polls cond with a deadline — the tests above need to observe
// intermediate admission states without sleeping fixed amounts.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
