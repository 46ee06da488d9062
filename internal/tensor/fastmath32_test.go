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

// TestLSTMCellMatchesUnfused checks the fused cell kernel, bit for bit,
// against the op-by-op chain a recording tape runs in its place: column
// slices, bias+activation per gate, then the five elementwise ops.
func TestLSTMCellMatchesUnfused(t *testing.T)   { testLSTMCellMatchesUnfused[float64](t) }
func TestLSTMCell32MatchesUnfused(t *testing.T) { testLSTMCellMatchesUnfused[float32](t) }

func testLSTMCellMatchesUnfused[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const batch, h = 5, 7
	z := randMatOf[T](rng, batch, 4*h)
	b := randMatOf[T](rng, 1, 4*h)
	sc := randMatOf[T](rng, batch, h)

	gate := func(k int, act Act) *Mat[T] {
		zk, bk := NewMat[T](batch, h), NewMat[T](1, h)
		for r := 0; r < batch; r++ {
			copy(zk.Row(r), z.Row(r)[k*h:(k+1)*h])
		}
		copy(bk.Data, b.Data[k*h:(k+1)*h])
		AddRowActInto(zk, zk, bk, act)
		return zk
	}
	i, f, g, o := gate(0, ActSigmoid), gate(1, ActSigmoid), gate(2, ActTanh), gate(3, ActSigmoid)
	wantSC := Add(Mul(f, sc), Mul(i, g))
	wantSH := NewMat[T](batch, h)
	TanhInto(wantSH, wantSC)
	MulInto(wantSH, o, wantSH)

	sh := NewMat[T](batch, h)
	LSTMCellInto(sh, sc, z, b)
	mustEqual(t, sh, wantSH, "hidden state")
	mustEqual(t, sc, wantSC, "cell state")
}
