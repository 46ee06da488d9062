package fleet

import (
	"slices"
	"time"
)

// latencyTracker estimates a high quantile of recent successful proxy
// latencies — the hedge trigger. A fixed ring buffer over the last
// window of requests adapts to load shifts quickly (old samples age out
// by count, not time), and the quantile is recomputed every
// recomputeEvery observations rather than per request, so the steady
// state costs one mutexed append.
type latencyTracker struct {
	quantile float64

	mu      chan struct{} // 1-buffered semaphore; also guards cached
	window  []time.Duration
	scratch []time.Duration // compute's sorted copy, reused
	n       int             // filled entries
	idx     int             // next write position
	since   int             // observations since the last recompute
	cached  time.Duration
}

const recomputeEvery = 32

func newLatencyTracker(size int, quantile float64) *latencyTracker {
	if size <= 0 {
		size = 512
	}
	if quantile <= 0 || quantile >= 1 {
		quantile = 0.99
	}
	t := &latencyTracker{
		quantile: quantile,
		mu:       make(chan struct{}, 1),
		window:   make([]time.Duration, size),
		scratch:  make([]time.Duration, 0, size),
	}
	t.mu <- struct{}{}
	return t
}

// Observe folds one successful request latency into the window.
func (t *latencyTracker) Observe(d time.Duration) {
	<-t.mu
	t.window[t.idx] = d
	t.idx = (t.idx + 1) % len(t.window)
	if t.n < len(t.window) {
		t.n++
	}
	t.since++
	if t.since >= recomputeEvery {
		t.since = 0
		t.cached = t.compute()
	}
	t.mu <- struct{}{}
}

// Quantile returns the tracked quantile of the current window, or 0
// when too few samples have been observed to say anything (callers fall
// back to their configured minimum threshold).
func (t *latencyTracker) Quantile() time.Duration {
	<-t.mu
	if t.cached == 0 && t.n >= 8 {
		t.cached = t.compute()
	}
	q := t.cached
	t.mu <- struct{}{}
	return q
}

// compute sorts a copy of the filled window into the scratch buffer.
// Called with the semaphore held.
func (t *latencyTracker) compute() time.Duration {
	if t.n < 8 {
		return 0
	}
	t.scratch = append(t.scratch[:0], t.window[:t.n]...)
	slices.Sort(t.scratch)
	return t.scratch[int(t.quantile*float64(t.n-1))]
}
