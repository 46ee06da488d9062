package fleet

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// step asserts one outcome produces the expected state.
func step(t *testing.T, f *healthFSM, ok bool, want HealthState) {
	t.Helper()
	_, cur := f.observe(ok)
	if cur != want {
		t.Fatalf("after observe(%v): state = %v, want %v", ok, cur, want)
	}
}

// stepN applies n identical outcomes, asserting the state after each.
func stepN(t *testing.T, f *healthFSM, n int, ok bool, want HealthState) {
	t.Helper()
	for i := 0; i < n; i++ {
		step(t, f, ok, want)
	}
}

func TestHealthLifecycleHysteresis(t *testing.T) {
	f := newHealthFSM()
	if f.State() != Healthy {
		t.Fatalf("initial state = %v, want Healthy", f.State())
	}

	// One blip: healthy → suspect, still routable, next ok restores.
	step(t, f, false, Suspect)
	if !f.State().Routable() {
		t.Fatal("suspect replica must stay routable (blip grace)")
	}
	step(t, f, true, Healthy)

	// Sustained failure: suspect for downAfter-1 fails, then down.
	stepN(t, f, downAfter-1, false, Suspect)
	step(t, f, false, Down)
	if f.State().Routable() {
		t.Fatal("down replica must not be routable")
	}

	// Recovery needs upAfter consecutive successes, then one more for
	// full trust.
	stepN(t, f, upAfter-1, true, Down)
	step(t, f, true, Recovered)
	if !f.State().Routable() {
		t.Fatal("recovered replica must be routable")
	}
	step(t, f, true, Healthy)
}

// A recovered replica that fails again goes straight back down — no
// downAfter grace while it is still rebuilding trust.
func TestHealthRecoveredFailsFast(t *testing.T) {
	f := newHealthFSM()
	stepN(t, f, downAfter-1, false, Suspect)
	step(t, f, false, Down)
	stepN(t, f, upAfter-1, true, Down)
	step(t, f, true, Recovered)
	step(t, f, false, Down)
}

// An interrupted success streak must not count toward recovery.
func TestHealthRecoveryStreakResets(t *testing.T) {
	f := newHealthFSM()
	stepN(t, f, downAfter-1, false, Suspect)
	step(t, f, false, Down)
	stepN(t, f, upAfter-1, true, Down)
	step(t, f, false, Down) // streak broken one short of upAfter
	stepN(t, f, upAfter-1, true, Down)
	step(t, f, true, Recovered)
}

func TestHealthStateStrings(t *testing.T) {
	for s, want := range map[HealthState]string{
		Down: "down", Suspect: "suspect", Recovered: "recovered", Healthy: "healthy",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

// detectorRig drives one replica's health through the router's two real
// inputs: a readyz probe (Router.check) and a proxied /estimate attempt
// (Router.forward over the one replica). The probe loop never ticks; the
// test is the only prober.
type detectorRig struct {
	t          *testing.T
	f          *fleetUnderTest
	rt         *Router
	rep        *replicaRT
	readyFails atomic.Bool
	estFails   atomic.Bool
}

func newDetectorRig(t *testing.T) *detectorRig {
	f := newFleet(t, 1, func(cfg *Config) { cfg.HealthInterval = time.Hour })
	d := &detectorRig{t: t, f: f, rt: f.router, rep: f.router.byIndex[0]}
	f.replicas[0].setMode(func(w http.ResponseWriter, r *http.Request) bool {
		fail := d.estFails.Load()
		if r.URL.Path == "/readyz" {
			fail = d.readyFails.Load()
		}
		if fail {
			w.WriteHeader(http.StatusInternalServerError)
		}
		return fail
	})
	return d
}

func (d *detectorRig) expect(input string, ok bool, want HealthState) {
	d.t.Helper()
	if got := d.rep.health.State(); got != want {
		d.t.Fatalf("after %s ok=%v: state = %v, want %v", input, ok, got, want)
	}
}

// probe runs one readyz probe that passes or fails.
func (d *detectorRig) probe(ok bool, want HealthState) {
	d.t.Helper()
	d.readyFails.Store(!ok)
	d.rt.check(d.rep)
	d.expect("probe", ok, want)
}

// request proxies one /estimate attempt that is served or gets a 500.
func (d *detectorRig) request(ok bool, want HealthState) {
	d.t.Helper()
	d.estFails.Store(!ok)
	out := d.rt.forward(context.Background(), "estimate", []byte(`{"sql":"q"}`), "q")
	if (out.err == nil) != ok {
		d.t.Fatalf("request ok=%v: attempt error %v", ok, out.err)
	}
	d.expect("request", ok, want)
}

// downAfter consecutive failures take a healthy replica out of rotation
// whichever input reports them; anything less leaves it Suspect.
func TestHealthFailuresFromBothInputsReachDown(t *testing.T) {
	d := newDetectorRig(t)
	d.request(false, Suspect)
	for i := 1; i < downAfter-1; i++ {
		d.probe(false, Suspect)
	}
	d.request(false, Down)

	// Requests alone do it too.
	for i := 1; i < upAfter; i++ {
		d.probe(true, Down)
	}
	d.probe(true, Recovered)
	d.request(true, Healthy)
	for i := 1; i < downAfter; i++ {
		d.request(false, Suspect)
	}
	d.request(false, Down)
}

// A recovered replica goes back Down on its first failed request, as on
// its first failed probe.
func TestHealthRecoveredFailsFastOnRequest(t *testing.T) {
	d := newDetectorRig(t)
	for i := 1; i < downAfter; i++ {
		d.probe(false, Suspect)
	}
	d.probe(false, Down)
	for i := 1; i < upAfter; i++ {
		d.probe(true, Down)
	}
	d.probe(true, Recovered)
	d.request(false, Down)
}

// A success from either input ends a failure streak built from the
// other: a passed probe resets a streak of failed requests, and a
// served request resets a streak of failed probes.
func TestHealthSuccessResetsStreakAcrossInputs(t *testing.T) {
	d := newDetectorRig(t)
	for i := 1; i < downAfter; i++ {
		d.request(false, Suspect)
	}
	d.probe(true, Healthy)
	for i := 1; i < downAfter; i++ {
		d.probe(false, Suspect)
	}
	d.request(true, Healthy)
	d.request(false, Suspect) // a fresh streak of one, not downAfter
}

// Probes and request goroutines observing one replica at once leave the
// gauges on the state the replica ended in, and count one rebalance per
// logged transition across the routable line.
func TestHealthConcurrentInputsKeepGaugesConsistent(t *testing.T) {
	d := newDetectorRig(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				d.rt.observe(d.rep, (i/4+g)%2 == 0) // runs of four fails and four oks
			}
		}(g)
	}
	wg.Wait()
	state := d.rep.health.State()
	up := 0.0
	if state.Routable() {
		up = 1
	}
	if got := d.f.met.ReplicaState.With(d.rep.id).Value(); got != float64(state) {
		t.Fatalf("state gauge reads %v, the replica is %v", got, state)
	}
	if got := d.f.met.ReplicaUp.With(d.rep.id).Value(); got != up {
		t.Fatalf("up gauge reads %v, the replica is %v", got, state)
	}
	flips := d.f.moves.count(d.rep.id, "down") + d.f.moves.count(d.rep.id, "recovered")
	if flips == 0 || d.f.met.Rebalances.Value() != uint64(flips) {
		t.Fatalf("rebalances = %d, want one per transition into or out of down (%d)", d.f.met.Rebalances.Value(), flips)
	}
}

// A success on a Healthy replica, what every served request reports,
// takes no lock and allocates nothing: with the detector's mutex held
// elsewhere it still returns at once.
func TestHealthHealthySuccessTakesNoLock(t *testing.T) {
	d := newDetectorRig(t)
	d.rep.health.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.rt.observe(d.rep, true)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a success on a healthy replica waited for the detector's lock")
	}
	d.rep.health.mu.Unlock()
	if allocs := testing.AllocsPerRun(100, func() { d.rt.observe(d.rep, true) }); allocs != 0 {
		t.Fatalf("a success on a healthy replica allocates %.0f times, want 0", allocs)
	}
}
