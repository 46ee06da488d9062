package tensor

import (
	"math/rand"
	"testing"
)

// forceParallel drops the FLOP gate so the range-split path engages on
// test-sized fixtures, and restores both knobs on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	prevW := MatMulWorkers()
	prevF := SetMatMulMinFlops(0)
	t.Cleanup(func() {
		SetMatMulWorkers(prevW)
		SetMatMulMinFlops(prevF)
	})
}

// TestParallelMatMulBitIdenticalAcrossWorkers is the property test behind
// the deterministic-split claim: for every kernel, every worker count, and
// shapes covering both the register and streaming paths (b below and
// above regPathMaxB), the parallel result must equal the serial result
// bit for bit — including the unroll tails and rows/cols that don't
// divide evenly across workers.
func TestParallelMatMulBitIdenticalAcrossWorkers(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(23))
	shapes := [][3]int{
		{1, 1, 1},     // degenerate: nothing to split
		{2, 3, 5},     // fewer rows than most worker counts
		{7, 9, 13},    // odd everything: unroll tails + ragged split
		{16, 8, 24},   // even split
		{33, 17, 41},  // ragged split, register path
		{12, 64, 640}, // 40960 elements: streaming path
	}
	workers := []int{2, 3, 4, 7}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		at := a.Transpose()
		bt := b.Transpose()

		SetMatMulWorkers(1)
		want := MatMul(a, b)
		wantTA := MatMulTransA(at, b)
		wantTB := MatMulTransB(a, bt)

		for _, w := range workers {
			SetMatMulWorkers(w)
			got := randMat(rng, m, n) // dirty output: kernels must overwrite fully
			MatMulInto(got, a, b)
			mustEqual(t, got, want, "MatMulInto parallel")

			gotTA := randMat(rng, m, n)
			MatMulTransAInto(gotTA, at, b)
			mustEqual(t, gotTA, wantTA, "MatMulTransAInto parallel")

			gotTB := randMat(rng, m, n)
			MatMulTransBInto(gotTB, a, bt)
			mustEqual(t, gotTB, wantTB, "MatMulTransBInto parallel")
		}
	}
}

// TestRegisterAndStreamingPathsBitIdentical pins the two serial MatMul
// loop orders to each other across the size threshold: per output element
// both accumulate in ascending k with a-zeros skipped, so the path choice
// must never show up in the result.
func TestRegisterAndStreamingPathsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := randMat(rng, 9, 31)
	b := randMat(rng, 31, 27)
	reg := New(a.Rows, b.Cols)
	matMulRows(reg, a, b, false) // b small: register path

	// Build the same product through views of an oversized b embedding so
	// the streaming path runs on identical values: simpler, just call the
	// streaming branch by constructing a naive reference instead.
	want := naiveMatMul(a, b)
	mustEqual(t, reg, want, "register path vs naive")

	big := randMat(rng, 64, 1024) // 65536 elements > regPathMaxB
	abig := randMat(rng, 3, 64)
	stream := New(3, 1024)
	matMulRows(stream, abig, big, false)
	mustEqual(t, stream, naiveMatMul(abig, big), "streaming path vs naive")
}

// TestMatMulWorkerKnobs pins the knob contract: setters return the
// previous value and out-of-range requests clamp.
func TestMatMulWorkerKnobs(t *testing.T) {
	prev := SetMatMulWorkers(5)
	if got := MatMulWorkers(); got != 5 {
		t.Fatalf("MatMulWorkers() = %d, want 5", got)
	}
	if got := SetMatMulWorkers(0); got != 5 {
		t.Fatalf("SetMatMulWorkers(0) returned %d, want previous 5", got)
	}
	if got := MatMulWorkers(); got != 1 {
		t.Fatalf("workers after clamp = %d, want 1", got)
	}
	SetMatMulWorkers(prev)

	prevF := SetMatMulMinFlops(-3)
	if got := SetMatMulMinFlops(prevF); got != 0 {
		t.Fatalf("negative min-flops should clamp to 0, got %d", got)
	}
}
