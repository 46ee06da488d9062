package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the deterministic data-parallel driver for the matmul
// kernels. Large multiplications are split into contiguous output ranges
// (rows for MatMulInto/MatMulTransBInto, columns for MatMulTransAInto)
// and the ranges run on worker goroutines. Every output element is
// produced by exactly the same per-element loop the serial kernel runs —
// the split only partitions *which* elements a goroutine writes, never
// how any one element is accumulated — so results are bit-identical to
// the serial path for every worker count and every split boundary.
//
// Parallelism is a pure throughput knob, gated so small multiplications
// (the common case on attention-sized matrices) never pay goroutine
// overhead: a kernel only fans out when its FLOP count crosses
// MinParallelFlops and more than one worker is configured.

// defaultMatMulWorkers is the fan-out ceiling applied when the knob has
// not been set explicitly: one worker per available CPU.
func defaultMatMulWorkers() int32 { return int32(runtime.GOMAXPROCS(0)) }

var (
	matmulWorkers  atomic.Int32
	matmulMinFlops atomic.Int64
)

// MinParallelFlops is the default FLOP threshold (multiply-adds) below
// which a matmul always runs serially; spawning goroutines for less work
// than this costs more than it saves.
const MinParallelFlops = 1 << 17

func init() {
	matmulWorkers.Store(defaultMatMulWorkers())
	matmulMinFlops.Store(MinParallelFlops)
}

// SetMatMulWorkers sets the maximum goroutines a single large matmul may
// fan out across and returns the previous setting. n <= 1 forces the
// serial path; n > 1 enables the deterministic range split. Results are
// bit-identical for every setting.
func SetMatMulWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(matmulWorkers.Swap(int32(n)))
}

// MatMulWorkers returns the current fan-out ceiling.
func MatMulWorkers() int { return int(matmulWorkers.Load()) }

// SetMatMulMinFlops sets the FLOP threshold above which a matmul fans
// out, returning the previous value. Tests lower it to exercise the
// parallel path on small fixtures.
func SetMatMulMinFlops(n int64) int64 {
	if n < 0 {
		n = 0
	}
	return matmulMinFlops.Swap(n)
}

// spanWorkers decides how many goroutines to use for a kernel whose
// output splits into units independent slices of flops total work.
//
// Beyond the all-or-nothing serial gate, fan-out is scaled so every
// worker carries at least the configured flop floor: a multiplication
// barely past the threshold runs on 2 goroutines, not GOMAXPROCS. This
// matters when the caller is itself a worker pool (data-parallel
// Predict): letting borderline inner matmuls grab every core
// oversubscribes the machine and makes the outer parallelism a net
// loss. The floor only shapes *how many* ranges the output splits into,
// never how an element is accumulated, so the bit-identical contract is
// unaffected.
func spanWorkers(units int, flops int64) int {
	w := int(matmulWorkers.Load())
	if w <= 1 || units < 2 {
		return 1
	}
	if mf := matmulMinFlops.Load(); mf > 0 {
		if flops < 2*mf {
			return 1 // splitting would leave some worker under the floor
		}
		if maxW := int(flops / mf); maxW < w {
			w = maxW
		}
	}
	if w > units {
		w = units
	}
	return w
}

// parallelRanges runs fn over w contiguous ranges covering [0, units).
// The split depends only on (units, w), so a given configuration always
// produces the same ranges. fn must write only inside its range.
func parallelRanges(units, w int, fn func(lo, hi int)) {
	chunk := (units + w - 1) / w
	var wg sync.WaitGroup
	for lo := chunk; lo < units; lo += chunk {
		hi := lo + chunk
		if hi > units {
			hi = units
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	fn(0, chunk) // first range runs on the calling goroutine
	wg.Wait()
}

// rowView returns the contiguous [lo,hi) row window of m without copying.
func rowView(m *Matrix, lo, hi int) *Matrix {
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}
