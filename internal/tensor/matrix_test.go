package tensor

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("not zeroed: %v", m.Data)
		}
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(0, 1) != 2 || m.At(2, 0) != 5 {
		t.Fatalf("At wrong: %v", m)
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatalf("Set failed")
	}
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if !AllClose(got, want, 1e-12) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(4, 4, 1, rng)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	if !AllClose(MatMul(a, id), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !AllClose(MatMul(id, a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(3, 5, 1, rng)
	b := Randn(4, 5, 1, rng)
	if !AllClose(MatMulTransB(a, b), MatMul(a, b.Transpose()), 1e-12) {
		t.Fatal("MatMulTransB disagrees with explicit transpose")
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(5, 3, 1, rng)
	b := Randn(5, 4, 1, rng)
	if !AllClose(MatMulTransA(a, b), MatMul(a.Transpose(), b), 1e-12) {
		t.Fatal("MatMulTransA disagrees with explicit transpose")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(6)
		m := Randn(rows, cols, 1, rng)
		return AllClose(m.Transpose().Transpose(), m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubMulScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	if !AllClose(Add(a, b), FromRows([][]float64{{6, 8}, {10, 12}}), 0) {
		t.Fatal("Add wrong")
	}
	if !AllClose(Sub(b, a), FromRows([][]float64{{4, 4}, {4, 4}}), 0) {
		t.Fatal("Sub wrong")
	}
	if !AllClose(Mul(a, b), FromRows([][]float64{{5, 12}, {21, 32}}), 0) {
		t.Fatal("Mul wrong")
	}
	if !AllClose(Scale(a, 2), FromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatal("Scale wrong")
	}
}

func TestAddDistributesOverMatMul(t *testing.T) {
	// (A+B)·C == A·C + B·C
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := Randn(m, k, 1, rng)
		b := Randn(m, k, 1, rng)
		c := Randn(k, n, 1, rng)
		lhs := MatMul(Add(a, b), c)
		rhs := Add(MatMul(a, c), MatMul(b, c))
		return AllClose(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddRow(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := FromRows([][]float64{{10, 20}})
	want := FromRows([][]float64{{11, 22}, {13, 24}})
	if !AllClose(AddRow(m, r), want, 0) {
		t.Fatal("AddRow wrong")
	}
}

func TestConcatCols(t *testing.T) {
	a := FromRows([][]float64{{1}, {2}})
	b := FromRows([][]float64{{3, 4}, {5, 6}})
	got := ConcatCols(a, b)
	want := FromRows([][]float64{{1, 3, 4}, {2, 5, 6}})
	if !AllClose(got, want, 0) {
		t.Fatalf("got %v", got)
	}
}

func TestConcatRows(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}, {5, 6}})
	got := ConcatRows(a, b)
	want := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if !AllClose(got, want, 0) {
		t.Fatalf("got %v", got)
	}
}

func TestSliceRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.SliceRows(1, 3)
	want := FromRows([][]float64{{3, 4}, {5, 6}})
	if !AllClose(got, want, 0) {
		t.Fatal("SliceRows wrong")
	}
	// mutation of the slice must not touch the original
	got.Set(0, 0, 99)
	if m.At(1, 0) != 3 {
		t.Fatal("SliceRows aliases parent")
	}
}

// TestSumMeanMaxAbs keeps its name, so test IDs recorded by earlier runs
// still resolve; Matrix.MaxAbs itself is gone.
func TestSumMeanMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{-3, 1}, {2, 0}})
	if m.Sum() != 0 {
		t.Fatalf("Sum=%v", m.Sum())
	}
	if m.Mean() != 0 {
		t.Fatalf("Mean=%v", m.Mean())
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases source")
	}
}

func TestAxpyInPlace(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{10, 20}})
	AxpyInPlace(a, 0.5, b)
	if !AllClose(a, FromRows([][]float64{{6, 12}}), 1e-12) {
		t.Fatalf("axpy got %v", a)
	}
}

func TestMatMulAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Randn(3, 4, 1, rng)
		b := Randn(4, 5, 1, rng)
		c := Randn(5, 2, 1, rng)
		return AllClose(MatMul(MatMul(a, b), c), MatMul(a, MatMul(b, c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterAndStreamingPathsBitIdentical pins the two MatMul loop
// orders to each other across the size threshold: per output element
// both accumulate in ascending k with a-zeros skipped, so the path choice
// must never show up in the result.
func TestRegisterAndStreamingPathsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := randMat(rng, 9, 31)
	b := randMat(rng, 31, 27)
	reg := New(a.Rows, b.Cols)
	matMulRows(reg, a, b, false) // b small: register path
	mustEqual(t, reg, naiveMatMul(a, b), "register path vs naive")

	big := randMat(rng, 64, 1024) // 65536 elements > regPathMaxB
	abig := randMat(rng, 3, 64)
	stream := New(3, 1024)
	matMulRows(stream, abig, big, false)
	mustEqual(t, stream, naiveMatMul(abig, big), "streaming path vs naive")
}

// TestWarmMatMulAllocatesNothing pins that every matmul runs on its
// caller's goroutine: a warm call into a ready out allocates nothing, even
// at the largest product training runs (gradWx in BenchmarkMatMul, 1.45 M
// multiply-adds) with two Ps to spread over. Parallelism belongs to the
// phase that calls the kernels (the shard crew, Backward's leaf worker,
// the ScoreCtx workers); a fan-out inside a kernel would nest under them
// and allocate its goroutines and their closures here.
func TestWarmMatMulAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(51))
	const m, k, n = 60, 126, 192
	a, b := randMat(rng, m, k), randMat(rng, k, n)
	at, bt := randMat(rng, k, m), randMat(rng, n, k)
	out := New(m, n)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"MatMulInto", func() { MatMulInto(out, a, b) }},
		{"MatMulTransAInto", func() { MatMulTransAInto(out, at, b) }},
		{"MatMulTransBInto", func() { MatMulTransBInto(out, a, bt) }},
		{"MatMulAddInto", func() { MatMulAddInto(out, a, b) }},
		{"MatMulTransAAddInto", func() { MatMulTransAAddInto(out, at, b) }},
	} {
		if got := testing.AllocsPerRun(20, c.run); got != 0 {
			t.Errorf("warm %s at %dx%dx%d allocates %v times per call, want 0", c.name, m, k, n, got)
		}
	}
}

// BenchmarkMatMul runs the kernels at the shapes the cost model multiplies
// (bench/'s served model: 42-node plans, 60-wide node rows, Hidden 48)
// on one goroutine and reports MFLOP/s, so a kernel change can be sized
// here before paired runs of bench/.
func BenchmarkMatMul(b *testing.B) {
	shapes := []struct {
		name    string
		op      byte // 'n' a·b, 'a' aᵀ·b, 'b' a·bᵀ
		m, k, n int  // out is m×n; the sum runs over k
	}{
		{"step_1x48x192", 'n', 1, 48, 192},       // recurrent h·Wh at batch 1
		{"inproj_126x60x192", 'n', 126, 60, 192}, // x·Wx, batch 3 × 42 nodes
		{"attn_20x48x32", 'n', 20, 48, 32},       // h·Wq, h·Wk, h·Wrk of a 20-node plan
		{"head_60x110x48", 'n', 60, 110, 48},     // first head layer, batch 60
		{"head1_1x102x48", 'n', 1, 102, 48},      // first head layer at batch 1
		{"head1_1x48x24", 'n', 1, 48, 24},        // second head layer at batch 1
		{"gradWx_60x126x192", 'a', 60, 126, 192}, // xᵀ·dZ
		{"gradWh_48x16x192", 'a', 48, 16, 192},   // hᵀ·dZ per step, batch 16
		{"gradHead_110x60x48", 'a', 110, 60, 48}, // hᵀ·dOut of the head
		{"gradX_126x192x60", 'b', 126, 192, 60},  // dZ·Wxᵀ
		{"gradH_16x192x48", 'b', 16, 192, 48},    // dZ·Whᵀ per step, batch 16
		{"gradH_8x192x48", 'b', 8, 192, 48},      // the fewest rows that take the AVX2 path
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) { benchMatMul(b, s.op, s.m, s.k, s.n) })
	}
}

func benchMatMul(b *testing.B, op byte, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	out := New(m, n)
	var run func()
	switch op {
	case 'n':
		x, y := randMat(rng, m, k), randMat(rng, k, n)
		run = func() { MatMulInto(out, x, y) }
	case 'a':
		x, y := randMat(rng, k, m), randMat(rng, k, n)
		run = func() { MatMulTransAInto(out, x, y) }
	case 'b':
		x, y := randMat(rng, m, k), randMat(rng, n, k)
		run = func() { MatMulTransBInto(out, x, y) }
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MFLOP/s")
}

// TestAddIntoDeclinesWithoutKernel pins when the accumulate entry points
// take the kernel: where the CPU runs it, and for aᵀ·b only when a has
// rows. Everywhere else they report false and leave g as it was, for the
// caller to add a scratch product.
func TestAddIntoDeclinesWithoutKernel(t *testing.T) {
	kernel := useAVX2
	if got := MatMulAddInto(New(2, 3), New(2, 2), New(2, 3)); got != kernel {
		t.Fatalf("float64 MatMulAddInto took the kernel = %v, want %v", got, kernel)
	}
	if got := MatMulTransAAddInto(New(2, 3), New(2, 2), New(2, 3)); got != kernel {
		t.Fatalf("float64 MatMulTransAAddInto took the kernel = %v, want %v", got, kernel)
	}
	if MatMulTransAAddInto(New(2, 3), New(0, 2), New(0, 3)) {
		t.Fatal("MatMulTransAAddInto took the kernel with k = 0")
	}
}
