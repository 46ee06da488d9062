package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestFastMath32Accuracy sweeps the fast f32 transcendentals against the
// float64 math library over the range inference actually exercises and
// pins the documented error budgets: ~3e-7 relative for Exp32, ≲1e-5
// absolute for the table-interpolated sigmoid/tanh.
func TestFastMath32Accuracy(t *testing.T) {
	for x := -30.0; x <= 30.0; x += 0.0037 {
		xf := float32(x)

		if got, want := float64(Exp32(xf)), math.Exp(float64(xf)); x >= -87 && x <= 88 {
			if rel := math.Abs(got-want) / want; rel > 1e-6 {
				t.Fatalf("Exp32(%v) = %g, want %g (rel err %g)", xf, got, want, rel)
			}
		}
		if got, want := float64(Sigmoid32(xf)), 1/(1+math.Exp(-float64(xf))); math.Abs(got-want) > 1e-5 {
			t.Fatalf("Sigmoid32(%v) = %g, want %g", xf, got, want)
		}
		if got, want := float64(Tanh32(xf)), math.Tanh(float64(xf)); math.Abs(got-want) > 2e-5 {
			t.Fatalf("Tanh32(%v) = %g, want %g", xf, got, want)
		}
	}

	// Saturation: the tails must land exactly on the asymptotes so gates
	// can close completely.
	for _, x := range []float32{-1e4, -100, 100, 1e4} {
		if s := Sigmoid32(x); s != 0 && s != 1 {
			if x < 0 && s > 1e-7 || x > 0 && s < 1-1e-6 {
				t.Fatalf("Sigmoid32(%v) = %v, want saturated", x, s)
			}
		}
		want := float32(1)
		if x < 0 {
			want = -1
		}
		if g := Tanh32(x); g != want {
			t.Fatalf("Tanh32(%v) = %v, want %v", x, g, want)
		}
	}
	if Exp32(-1000) != 0 {
		t.Fatal("Exp32 underflow must return 0")
	}
	if e := Exp32(1000); math.IsInf(float64(e), 1) || e < 1e38 {
		t.Fatalf("Exp32 overflow clamp returned %v", e)
	}
}

// TestFastMath32NonFinite pins the table kernels on non-finite input:
// NaN propagates (it used to index the table at int32(NaN) and panic) and
// the infinities saturate.
func TestFastMath32NonFinite(t *testing.T) {
	nan := float32(math.NaN())
	if s, th := Sigmoid32(nan), Tanh32(nan); s == s || th == th {
		t.Fatalf("Sigmoid32(NaN), Tanh32(NaN) = %v, %v, want NaN", s, th)
	}
	inf := float32(math.Inf(1))
	if Sigmoid32(inf) != 1 || Sigmoid32(-inf) != 0 || Tanh32(inf) != 1 || Tanh32(-inf) != -1 {
		t.Fatalf("infinities: σ = %v, %v; tanh = %v, %v", Sigmoid32(inf), Sigmoid32(-inf), Tanh32(inf), Tanh32(-inf))
	}
}

// TestLSTMCellMatchesUnfused checks the fused cell kernel, bit for bit,
// against the op-by-op chain it replaces: column slices, bias+activation
// per gate, then the five elementwise ops. It also pins what a backward
// pass reads back: the gate activations left in z, tanh of the new cell
// state in tc, and the incoming cell state untouched.
func TestLSTMCellMatchesUnfused(t *testing.T)   { testLSTMCellMatchesUnfused[float64](t) }
func TestLSTMCell32MatchesUnfused(t *testing.T) { testLSTMCellMatchesUnfused[float32](t) }

func testLSTMCellMatchesUnfused[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const batch, h = 5, 7
	z := randMatOf[T](rng, batch, 4*h)
	b := randMatOf[T](rng, 1, 4*h)
	cPrev := randMatOf[T](rng, batch, h)
	zIn, wantPrev := z.Clone(), cPrev.Clone()

	gate := func(k int, act Act) *Mat[T] {
		zk, bk := NewMat[T](batch, h), NewMat[T](1, h)
		for r := 0; r < batch; r++ {
			copy(zk.Row(r), z.Row(r)[k*h:(k+1)*h])
		}
		copy(bk.Data, b.Data[k*h:(k+1)*h])
		AddRowActInto(zk, zk, bk, act)
		return zk
	}
	gates := []*Mat[T]{gate(0, ActSigmoid), gate(1, ActSigmoid), gate(2, ActTanh), gate(3, ActSigmoid)}
	i, f, g, o := gates[0], gates[1], gates[2], gates[3]
	wantC := Add(Mul(f, cPrev), Mul(i, g))
	wantTC := NewMat[T](batch, h)
	TanhInto(wantTC, wantC)
	wantH := Mul(o, wantTC)

	sh, tc, c := NewMat[T](batch, h), NewMat[T](batch, h), NewMat[T](batch, h)
	LSTMCellInto(sh, tc, c, cPrev, z, b)
	mustEqual(t, sh, wantH, "hidden state")
	mustEqual(t, c, wantC, "cell state")
	mustEqual(t, tc, wantTC, "tanh of the cell state")
	mustEqual(t, cPrev, wantPrev, "incoming cell state")
	for k, want := range gates {
		got := NewMat[T](batch, h)
		for r := 0; r < batch; r++ {
			copy(got.Row(r), z.Row(r)[k*h:(k+1)*h])
		}
		mustEqual(t, got, want, "gate activations in z")
	}

	// With tc = h, as a forward-only tape runs it, h is unchanged.
	sh2 := NewMat[T](batch, h)
	LSTMCellInto(sh2, sh2, c, cPrev, zIn, b)
	mustEqual(t, sh2, wantH, "hidden state with tc = h")
}
