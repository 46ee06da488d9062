package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The skip-gram kernel is held to its Go loop lane by lane, bit for bit
// (NaN payloads aside, which the Go loop's operand order may pick
// differently), on finite values, whose sums show any change in their
// order, and on fuzzFloat values: ±0, ±Inf, NaNs, subnormals and normal
// numbers mixed.

// randFloats returns n normally distributed values, or n fuzzFloat values
// when special is set.
func randFloats(rng *rand.Rand, n int, special bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		if special {
			v[i] = fuzzFloat(rng.Uint64())
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// mustSameBits fails unless got and want hold the same bits element by
// element, any NaN matching any NaN.
func mustSameBits(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %v (%#x), Go loop %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// randPair returns 1 to 12 indices of a nrows-row matrix, repeats
// included, and lengths of runs that cover them with no run holding a row
// twice: a run ends at a repeated row, and at random before one.
func randPair(rng *rand.Rand, nrows int) (rows, runs []int32) {
	rows = make([]int32, 1+rng.Intn(12))
	for i := range rows {
		rows[i] = int32(rng.Intn(nrows))
	}
	for start := 0; start < len(rows); {
		end := start + 1
		for end < len(rows) && !slices.Contains(rows[start:end], rows[end]) && rng.Intn(8) != 0 {
			end++
		}
		runs = append(runs, int32(end-start))
		start = end
	}
	return rows, runs
}

// TestNegSampleAVX2MatchesGo runs the kernel and the Go loop on the same
// inputs at each of the kernel's widths, 4 to 16 columns, with rows that
// repeat within a pair (so runs of one to twelve rows, several per pair),
// learning rates of either sign and special values, and compares x, every
// row of m and the last run's coefficients. Other widths take the Go loop.
func TestNegSampleAVX2MatchesGo(t *testing.T) {
	if !useVecAct {
		t.Skip("the activation kernels are not selected on this CPU")
	}
	rng := rand.New(rand.NewSource(4))
	lrs := []float64{0.05, 1, -0.5, 1e-300, math.Inf(1), math.NaN()}
	for n := 1; n <= 36; n++ {
		for trial := 0; trial < 60; trial++ {
			sp := trial%2 == 1
			nrows := 1 + rng.Intn(6)
			x, m := randFloats(rng, n, sp), randFloats(rng, nrows*n, sp)
			if !sp {
				for i := range m { // dots far enough from 0 that some σ saturate
					m[i] *= float64(1 + rng.Intn(40))
				}
			}
			rows, runs := randPair(rng, nrows)
			lr := lrs[rng.Intn(2)]
			if sp {
				lr = lrs[rng.Intn(len(lrs))]
			}
			buf := make([]float64, n+len(rows)+3)
			wantX, wantM, wantG := slices.Clone(x), slices.Clone(m), make([]float64, len(rows)+3)
			negSampleGo(wantX, wantM, rows, runs, lr, make([]float64, n), wantG)
			if took, want := negSampleVec(x, m, rows, runs, lr, buf), n%4 == 0 && n <= 16; took != want {
				t.Fatalf("n=%d: negSampleVec took the kernel: %v, want %v", n, took, want)
			} else if !took {
				continue
			}
			mustSameBits(t, x, wantX, "x")
			mustSameBits(t, m, wantM, "rows")
			last := int(runs[len(runs)-1])
			mustSameBits(t, buf[:last], wantG[:last], "coefficients")
		}
	}
}

// TestNegSampleAVX2LabelsFirstRowOnly pins the label. With m = 0 every
// dot is +0 and σ is 1/2, and with x = 1 each row becomes its coefficient:
// lr/2 for the pair's first row and −lr/2 for every other, whichever run
// and lane it lands in.
func TestNegSampleAVX2LabelsFirstRowOnly(t *testing.T) {
	if !useVecAct {
		t.Skip("the activation kernels are not selected on this CPU")
	}
	const n = 8
	rows := []int32{3, 0, 1, 2, 4, 5, 6, 7, 8}
	m, x := make([]float64, 9*n), make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	NegSampleStep(x, m, rows, []int32{6, 3}, 0.5, make([]float64, n+len(rows)+3))
	for i, r := range rows {
		want := -0.25
		if i == 0 {
			want = 0.25
		}
		if got := m[int(r)*n:][:n]; slices.ContainsFunc(got, func(v float64) bool { return v != want }) {
			t.Fatalf("row %d (position %d) = %v, want %v", r, i, got, want)
		}
	}
}

// The tests below take the step apart: the dots behind the coefficients,
// and the row and input updates those coefficients drive, each against a
// scalar sum written out here rather than against negSampleGo.

// stepCoefs applies one pair as NegSampleStep does, kernel first and Go
// loop otherwise, with len(x) > 0, and returns its last run's
// coefficients: buf's head after the kernel, past the accumulator after
// the Go loop.
func stepCoefs(x, m []float64, rows, runs []int32, lr float64, buf []float64) []float64 {
	last := int(runs[len(runs)-1])
	if negSampleVec(x, m, rows, runs, lr, buf) {
		return buf[:last]
	}
	negSampleGo(x, m, rows, runs, lr, buf[:len(x)], buf[len(x):])
	return buf[len(x):][:last]
}

// wantCoef is the coefficient of a row whose dot with x is s.
func wantCoef(lr float64, first bool, s float64) float64 {
	label := 0.0
	if first {
		label = 1
	}
	return lr * (label - 1/(1+math.Exp(-s)))
}

// scalarDot sums x·v in ascending column order from +0, each product
// rounded before it is added.
func scalarDot(x, v []float64) float64 {
	var s float64
	for d := range x {
		s += float64(x[d] * v[d])
	}
	return s
}

// distinctRows returns k distinct indices of a nrows-row matrix.
func distinctRows(rng *rand.Rand, nrows, k int) []int32 {
	rows := make([]int32, k)
	for i, r := range rng.Perm(nrows)[:k] {
		rows[i] = int32(r)
	}
	return rows
}

// negativeDots makes x positive and m negative, so that every dot falls
// far below zero. There σ(s) is about e^s, and a negative's coefficient
// shows its dot's last bits, which a change in the order of the sum moves.
func negativeDots(x, m []float64) {
	n := len(x)
	for d := range x {
		x[d] = 1 + math.Abs(x[d])
	}
	for i := range m {
		m[i] = -(0.5 + math.Abs(m[i])) * 100 / float64(n)
	}
}

// TestDot4AVX2Lanes runs the kernel at each of its widths on one run of
// one to four distinct rows, a single group of lanes, and checks each
// lane's coefficient against the one its row's scalar sum gives.
func TestDot4AVX2Lanes(t *testing.T) {
	if !useVecAct {
		t.Skip("the activation kernels are not selected on this CPU")
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n, k := 4*(1+rng.Intn(4)), 1+rng.Intn(4)
		sp := trial%2 == 1
		nrows := k + rng.Intn(3)
		x, m := randFloats(rng, n, sp), randFloats(rng, nrows*n, sp)
		if !sp {
			negativeDots(x, m)
		}
		rows := distinctRows(rng, nrows, k)
		want := make([]float64, k)
		for j, r := range rows {
			want[j] = wantCoef(1, j == 0, scalarDot(x, m[int(r)*n:][:n]))
		}
		buf := make([]float64, n+k+3)
		if !negSampleVec(x, m, rows, []int32{int32(k)}, 1, buf) {
			t.Fatalf("n=%d: negSampleVec did not take the kernel", n)
		}
		mustSameBits(t, buf[:k], want, "lane coefficients")
	}
}

// TestDotRowsIntoMatchesGo takes the step's dots at every width from 0 to
// 37 (the kernel's widths and the Go loop's), with one run of one to
// twelve distinct rows, which leaves a partial last group of lanes, and
// checks each coefficient against its row's scalar sum. It checks too
// that the step writes no scratch past the n+len(rows)+3 values it asks
// for and no row outside rows, and, with no columns, nothing at all.
func TestDotRowsIntoMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const sentinel = 12345.5
	for n := 0; n <= 37; n++ {
		for trial := 0; trial < 20; trial++ {
			k := 1 + rng.Intn(12)
			sp := trial%2 == 1
			nrows := k + rng.Intn(4)
			x, m := randFloats(rng, n, sp), randFloats(rng, nrows*n, sp)
			if !sp && n > 0 {
				negativeDots(x, m)
			}
			rows, lr := distinctRows(rng, nrows, k), []float64{1, 0.05, -0.5}[rng.Intn(3)]
			want := make([]float64, k)
			for j, r := range rows {
				want[j] = wantCoef(lr, j == 0, scalarDot(x, m[int(r)*n:][:n]))
			}
			wantM := slices.Clone(m)
			buf := make([]float64, n+k+3+8)
			for i := range buf {
				buf[i] = sentinel
			}
			if n == 0 {
				NegSampleStep(x, m, rows, []int32{int32(k)}, lr, buf[:k+3])
				if slices.ContainsFunc(buf, func(v float64) bool { return v != sentinel }) {
					t.Fatalf("no columns: the step wrote scratch %v", buf)
				}
				continue
			}
			got := stepCoefs(x, m, rows, []int32{int32(k)}, lr, buf[:n+k+3])
			mustSameBits(t, got, want, "coefficients")
			for i, v := range buf[n+k+3:] {
				if v != sentinel {
					t.Fatalf("n=%d rows=%v: the step wrote scratch %d past its %d values", n, rows, i, n+k+3)
				}
			}
			for r := 0; r < nrows; r++ {
				if !slices.Contains(rows, int32(r)) {
					mustSameBits(t, m[r*n:][:n], wantM[r*n:][:n], "row outside rows")
				}
			}
		}
	}
}

// TestAxpyRowsMatchesGo checks the step's updates at every width from 1
// to 37, with one run of one to twelve distinct rows and special
// coefficients: given the coefficients g it left, each row must become
// v + g·x, and x must become x plus the sum of g·v over the rows in order
// from +0, every product rounded before it is added.
func TestAxpyRowsMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lrs := []float64{0, math.Copysign(0, -1), 1, -0.03125, math.Inf(1), math.NaN()}
	for n := 1; n <= 37; n++ {
		for trial := 0; trial < 20; trial++ {
			k := 1 + rng.Intn(12)
			sp := trial%2 == 1
			nrows := k + rng.Intn(4)
			x, m := randFloats(rng, n, sp), randFloats(rng, nrows*n, sp)
			rows, lr := distinctRows(rng, nrows, k), lrs[2+rng.Intn(2)]
			if sp {
				lr = lrs[rng.Intn(len(lrs))]
			}
			x0, m0 := slices.Clone(x), slices.Clone(m)
			g := stepCoefs(x, m, rows, []int32{int32(k)}, lr, make([]float64, n+k+3))
			acc := make([]float64, n)
			for j, r := range rows {
				v0 := m0[int(r)*n:][:n]
				want := make([]float64, n)
				for d := range v0 {
					acc[d] += float64(g[j] * v0[d])
					want[d] = v0[d] + float64(g[j]*x0[d])
				}
				mustSameBits(t, m[int(r)*n:][:n], want, "row")
			}
			for d := range acc {
				acc[d] += x0[d]
			}
			mustSameBits(t, x, acc, "x")
		}
	}
}
