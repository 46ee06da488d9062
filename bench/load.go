package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// draw picks which of n inputs client c sends as its k-th op. It is a pure
// function of (seed, c, k), so the request sequence is fixed per seed however
// many ops a run has time for. Inputs are ordered by size, and the draws
// step through them by the golden ratio, which visits every input once per n
// ops and spreads any short stretch of ops evenly over the sizes: each
// measurement window then sees the same mix, which random draws would give
// only on average.
func draw(seed int64, c, k, n int) int {
	stride := int(0.6180339887*float64(n)) | 1
	for gcd(stride, n) != 1 {
		stride += 2
	}
	start := uint64(seed)*0x9e3779b97f4a7c15 + uint64(c)*0xbf58476d1ce4e5b9
	return int((start%uint64(n) + uint64(k%n)*uint64(stride)) % uint64(n))
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// window is one fixed-count slice of the measured phase.
type window struct {
	ops     int
	wall    time.Duration
	p50     time.Duration // median client-observed latency inside the window
	mallocs uint64
	bytes   uint64
	ref     float64 // machine speed: mean of the probes taken just before and just after
}

// loader drives a workload window by window and keeps what it measured.
type loader struct {
	w         workload
	clients   int
	perClient int       // ops per client per window
	rec       *recorder // nil: untraced ops
	probe     *prober

	windows []window
	lat     []time.Duration // every op's latency
	failed  int
	err     error // first failure
	gc      uint32

	scratch [][]time.Duration // per-client latencies of the current window
}

// newLoader splits windows of windowOps ops over clients closed-loop
// callers: each sends its next op only after the previous one returned, as
// callers of a cost model do. Loaders that take turns share one prober.
func newLoader(w workload, clients, windowOps int, rec *recorder, probe *prober) *loader {
	perClient := windowOps / clients
	if perClient < 1 {
		perClient = 1
	}
	return &loader{w: w, clients: clients, perClient: perClient, rec: rec, probe: probe, scratch: make([][]time.Duration, clients)}
}

func (l *loader) ops() int {
	n := 0
	for _, w := range l.windows {
		n += w.ops
	}
	return n
}

// run measures windows for as long as keepGoing, asked before each, says.
func (l *loader) run(keepGoing func(done int, elapsed time.Duration) bool) {
	for start := time.Now(); keepGoing(len(l.windows), time.Since(start)); {
		l.window()
	}
}

// window measures one window. Statistics over windows, not over the whole
// phase, are what make the numbers repeat on a shared machine: interference
// is bursty and one-sided, so a stall moves a mean but not the median window.
// Windows last tens of milliseconds (a third of a second at most), short
// against the seconds over which the machine's speed swings, so the probes on
// either side of a window say how fast the machine was during it.
func (l *loader) window() {
	first := len(l.windows) * l.perClient
	var mu sync.Mutex
	one := func(c int) {
		lat := l.scratch[c][:0]
		for k := first; k < first+l.perClient; k++ {
			d, err := l.w.op(c, k, l.rec)
			lat = append(lat, d)
			if err != nil {
				mu.Lock()
				l.failed++
				if l.err == nil {
					l.err = err
				}
				mu.Unlock()
			}
		}
		l.scratch[c] = lat
	}
	speedBefore := l.probe.latest()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	if l.clients == 1 {
		one(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < l.clients; c++ {
			wg.Add(1)
			go func() { defer wg.Done(); one(c) }()
		}
		wg.Wait()
	}
	wall := time.Since(t)
	runtime.ReadMemStats(&after)

	var all []time.Duration
	for _, lat := range l.scratch {
		all = append(all, lat...)
	}
	l.lat = append(l.lat, all...)
	l.gc += after.NumGC - before.NumGC
	l.windows = append(l.windows, window{
		ops:     len(all),
		wall:    wall,
		p50:     medianDur(all),
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		ref:     (speedBefore + l.probe.take()) / 2,
	})
}

// prober remembers the latest machine-speed probe, so that one reading serves
// as the "after" of one window and the "before" of the next.
type prober struct{ last float64 }

func (p *prober) take() float64 {
	p.last = machineProbe()
	return p.last
}

func (p *prober) latest() float64 {
	if p.last == 0 {
		return p.take()
	}
	return p.last
}

// refSpeed is the machine speed, in probe matmuls per second, at which the
// normalized timings are stated: about what this repository's two-processor
// sandbox gives, between its crowded (1800) and quiet (2500) states.
const refSpeed = 2000

// machineProbe runs a fixed 96x96 float64 matmul loop on every processor at
// once for 10 ms and returns matmuls per second, all processors together. It
// calls nothing from the program, so when it moves the machine moved, not the
// code. It loads every processor because that is what the program draws on:
// besides the clients there are server goroutines, the model's worker pool
// and the garbage collector, and a one-thread probe tracked even the
// one-client workloads less closely.
func machineProbe() float64 {
	rates := make([]float64, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for g := range rates {
		wg.Add(1)
		go func() { defer wg.Done(); rates[g] = matmulRate(10 * time.Millisecond) }()
	}
	wg.Wait()
	total := 0.0
	for _, r := range rates {
		total += r
	}
	return total
}

func matmulRate(d time.Duration) float64 {
	const n = 96
	var a, b, c [n * n]float64
	for i := range a {
		a[i], b[i] = float64(i%7), float64(i%5)
	}
	count := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
		count++
	}
	probeSink.Store(math.Float64bits(c[0]))
	return float64(count) / time.Since(start).Seconds()
}

// probeSink keeps the compiler from dropping the probe's arithmetic.
var probeSink atomic.Uint64
