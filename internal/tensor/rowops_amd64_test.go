package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The row kernels are held to their Go loops lane by lane, bit for bit
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

// TestDot4AVX2Lanes runs the kernel on four row indices, some of them
// the same row, with a row stride past the columns it sums, and checks each
// lane against that row's scalar sum.
func TestDot4AVX2Lanes(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n := 4 * (1 + rng.Intn(9))
		ld := n + rng.Intn(3)
		sp := trial%2 == 1
		x, m := randFloats(rng, n, sp), randFloats(rng, 3*ld, sp)
		var rows [4]int32
		for j := range rows {
			rows[j] = int32(rng.Intn(3)) // repeats alias one row into several lanes
		}
		var got [4]float64
		dot4AVX2(&got, &x[0], &m[0], &rows, n, ld)
		want := make([]float64, 4)
		for j, r := range rows {
			dotRowsGo(want[j:j+1], x, m[int(r)*ld:], []int32{0})
		}
		mustSameBits(t, got[:], want, "dot4AVX2")
	}
}

// TestDotRowsIntoMatchesGo covers every width from 0 to 37 (the tails past
// a multiple of 4 run in Go after the kernel), row counts that leave a
// partial last group, repeated rows, and checks that nothing past
// len(rows) of dst is written.
func TestDotRowsIntoMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(2))
	const sentinel = 12345.5
	for n := 0; n <= 37; n++ {
		for trial := 0; trial < 20; trial++ {
			sp := trial%2 == 1
			m, x, rows := randFloats(rng, 4*n, sp), randFloats(rng, n, sp), randRows(rng)
			got := make([]float64, len(rows)+3)
			for i := range got {
				got[i] = sentinel
			}
			DotRowsInto(got, x, m, rows)
			want := make([]float64, len(rows))
			dotRowsGo(want, x, m, rows)
			mustSameBits(t, got, want, "DotRowsInto")
			for i := len(rows); i < len(got); i++ {
				if got[i] != sentinel {
					t.Fatalf("n=%d rows=%v: DotRowsInto wrote dst[%d] past its rows", n, rows, i)
				}
			}
			if n == 0 {
				for i, v := range got[:len(rows)] {
					if math.Float64bits(v) != 0 {
						t.Fatalf("empty x: dst[%d] = %v, want +0", i, v)
					}
				}
			}
		}
	}
}

// randRows returns 0 to 9 indices of a 4-row matrix, with repeats.
func randRows(rng *rand.Rand) []int32 {
	rows := make([]int32, rng.Intn(10))
	for i := range rows {
		rows[i] = int32(rng.Intn(4))
	}
	return rows
}

// TestAxpyRowsMatchesGo covers widths 0 to 37, repeated rows and special
// coefficients.
func TestAxpyRowsMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(3))
	coefs := []float64{0, math.Copysign(0, -1), 1, -0.03125, math.Inf(1), math.NaN()}
	for n := 0; n <= 37; n++ {
		for trial := 0; trial < 20; trial++ {
			sp, rows := trial%2 == 1, randRows(rng)
			g := randFloats(rng, len(rows), sp)
			for i := range g {
				if sp && rng.Intn(3) == 0 {
					g[i] = coefs[rng.Intn(len(coefs))]
				}
			}
			acc, x, m := randFloats(rng, n, sp), randFloats(rng, n, sp), randFloats(rng, 4*n, sp)
			wantAcc, wantM := append([]float64(nil), acc...), append([]float64(nil), m...)
			axpyRowsGo(wantAcc, x, wantM, rows, g)
			AxpyRows(acc, x, m, rows, g)
			mustSameBits(t, acc, wantAcc, "AxpyRows acc")
			mustSameBits(t, m, wantM, "AxpyRows rows")
		}
	}
}

// TestRowKernelsRejectOutsideRows checks the bounds test that lets the
// kernels read rows unchecked.
func TestRowKernelsRejectOutsideRows(t *testing.T) {
	x, m := make([]float64, 8), make([]float64, 16)
	for _, rows := range [][]int32{{2}, {0, -1}} {
		for name, call := range map[string]func(){
			"DotRowsInto": func() { DotRowsInto(make([]float64, len(rows)), x, m, rows) },
			"AxpyRows":    func() { AxpyRows(make([]float64, 8), x, m, rows, make([]float64, len(rows))) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s accepted rows %v of a 2-row matrix", name, rows)
					}
				}()
				call()
			}()
		}
	}
}
