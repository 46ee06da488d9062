package fleet

import (
	"sync"
	"sync/atomic"
)

// HealthState is a replica's position in the health lifecycle. One
// state machine per replica takes two inputs: the router's readyz
// probes and the outcomes of the requests it proxies. Both count the
// same way, so a failed probe and a failed request each extend one
// failure streak, and a passed probe or a served answer ends it:
//
//	Healthy ──fail──▶ Suspect ──downAfter consecutive fails──▶ Down
//	   ▲                 │ ok                                    │
//	   └─────────────────┘             upAfter consecutive oks ──▶ Recovered
//	   ▲                                                         │
//	   └── ok ── Recovered ◀─────────────────────────────────────┘
//	              │ fail
//	              ▼
//	             Down
//
// The hysteresis is asymmetric on purpose: a healthy replica gets
// downAfter failures of grace before it stops receiving traffic (blips
// should not move keys off their warm replica), but a freshly recovered
// replica goes straight back Down on a single failure (a flapping
// process must prove real stability before it regains full trust).
//
// A state's value is its raal_fleet_replica_state gauge reading.
type HealthState int32

const (
	// Down replicas receive no traffic.
	Down HealthState = iota
	// Suspect replicas have failed at least once but still serve —
	// the grace period that keeps blips from moving keys.
	Suspect
	// Recovered replicas just returned from Down: routable, but one
	// failure sends them straight back.
	Recovered
	// Healthy replicas have a clean recent history.
	Healthy
)

const (
	downAfter = 3 // consecutive failures before Suspect → Down
	upAfter   = 2 // consecutive successes before Down → Recovered
)

// String names the state for logs and the /fleetz dump.
func (s HealthState) String() string {
	switch s {
	case Down:
		return "down"
	case Suspect:
		return "suspect"
	case Recovered:
		return "recovered"
	case Healthy:
		return "healthy"
	}
	return "unknown"
}

// Routable reports whether the router may send requests to a replica in
// this state. Everything but Down serves; Down replicas are skipped on
// the ring walk and their keys fail over to the next position.
func (s HealthState) Routable() bool { return s != Down }

// healthFSM applies outcomes with hysteresis. The state is atomic so the
// request path reads it lock-free; the streaks and every change of state
// are guarded by mu, which the probe goroutine and request goroutines
// share. Healthy carries no failure streak (only a success enters it and
// any failure leaves it), so a success on a Healthy replica changes
// nothing and needs neither the lock nor a store.
type healthFSM struct {
	state atomic.Int32
	mu    sync.Mutex
	fails int // consecutive failures
	oks   int // consecutive successes
}

func newHealthFSM() *healthFSM {
	f := &healthFSM{}
	f.state.Store(int32(Healthy))
	return f
}

// State returns the current state (safe from any goroutine).
func (f *healthFSM) State() HealthState { return HealthState(f.state.Load()) }

// observe folds one outcome in and returns (previous, current) so the
// caller can emit transition metrics and logs. The caller holds mu.
func (f *healthFSM) observe(ok bool) (prev, cur HealthState) {
	prev = f.State()
	cur = prev
	if ok {
		f.fails = 0
		f.oks++
		switch prev {
		case Suspect:
			cur = Healthy // the blip passed
		case Down:
			if f.oks >= upAfter {
				cur = Recovered
				f.oks = 0
			}
		case Recovered:
			cur = Healthy // one more clean outcome restores full trust
		}
	} else {
		f.oks = 0
		f.fails++
		switch prev {
		case Healthy:
			cur = Suspect
		case Suspect:
			if f.fails >= downAfter {
				cur = Down
			}
		case Recovered:
			cur = Down // no second chances while rebuilding trust
		}
	}
	if cur != prev {
		f.state.Store(int32(cur))
	}
	return prev, cur
}
