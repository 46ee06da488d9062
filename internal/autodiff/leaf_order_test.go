package autodiff

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"raal/internal/tensor"
)

// TestLeafGradientInTapeOrder pins the leaf worker's contract (DESIGN
// §5z): a Param's gradient is its contributions summed in reverse tape
// order, whichever goroutine applies them. One 1×n Param feeds, at every
// step of a recurrence, MatMul as a and as b, SliceCols, the AddRowApply
// bias and Add; the same contributions are recomputed from the recorded
// output gradients and summed by hand. Two passes on a reused tape pin the
// order across Backward calls too, and summing in forward order must give
// other bits, or the test could not tell the orders apart.
func TestLeafGradientInTapeOrder(t *testing.T) {
	const n, k, steps = 5, 9, 4
	rng := rand.New(rand.NewSource(43))
	pm := tensor.Randn(1, n, 0.7, rng)
	x, xc := tensor.Randn(n, n, 0.7, rng), tensor.Randn(n, 1, 0.7, rng)
	h0 := tensor.Randn(k, 1, 0.7, rng)

	tp := NewTape()
	p := tp.Param(pm)
	want, fwd := tensor.New(1, n), tensor.New(1, n)
	for pass := 0; pass < 2; pass++ {
		tp.Reset()
		// contrib[i] adds the i-th use of p, in tape order, to g.
		var contrib []func(g *tensor.Matrix)
		h, loss := tp.Const(h0), (*Var)(nil)
		for s := 0; s < steps; s++ {
			u := tp.MatMul(p, tp.Const(x))
			contrib = append(contrib, func(g *tensor.Matrix) {
				tensor.AddInPlace(g, tensor.MatMulTransB(u.Grad, x))
			})
			hv := h.Value
			v := tp.MatMul(h, p)
			contrib = append(contrib, func(g *tensor.Matrix) {
				tensor.AddInPlace(g, tensor.MatMulTransA(hv, v.Grad))
			})
			y := tp.AddRowApply(v, p, ActTanh)
			contrib = append(contrib, func(g *tensor.Matrix) {
				for i := 0; i < y.Value.Rows; i++ {
					yr, dy := y.Value.Row(i), y.Grad.Row(i)
					for j := range yr {
						g.Data[j] += dy[j] * (1 - yr[j]*yr[j])
					}
				}
			})
			sc := tp.SliceCols(p, 1, 3)
			contrib = append(contrib, func(g *tensor.Matrix) {
				for j, x := range sc.Grad.Data {
					g.Data[1+j] += x
				}
			})
			a := tp.Add(u, p)
			contrib = append(contrib, func(g *tensor.Matrix) {
				tensor.AddInPlace(g, a.Grad)
			})
			h = tp.MatMul(y, tp.Const(xc))
			term := tp.Add(tp.MeanAll(tp.Mul(y, y)), tp.SumAll(tp.Add(tp.SumAll(tp.Mul(a, a)), tp.SumAll(tp.Mul(sc, sc)))))
			if loss == nil {
				loss = term
			} else {
				loss = tp.Add(loss, term)
			}
		}
		tp.Backward(loss)
		for i := len(contrib) - 1; i >= 0; i-- {
			contrib[i](want)
		}
		for _, c := range contrib {
			c(fwd)
		}
		mustEqualMat(t, p.Grad, want, "leaf gradient after pass")
	}
	if slices.Equal(want.Data, fwd.Data) {
		t.Fatal("forward-order sum matches reverse-order sum bit for bit: the fixture cannot tell orders apart")
	}
}

// TestLeafTransposeOnlyForFiniteWeights pins dX = dY·Wᵀ for a leaf W:
// bit-equal to MatMulTransBInto, through W transposed once per pass where
// W is finite, and through MatMulTransBInto itself where it is not. dY
// has zero columns, which the transposed product skips and
// MatMulTransBInto multiplies: against an infinite weight that is a NaN
// the transposed path would not make.
func TestLeafTransposeOnlyForFiniteWeights(t *testing.T) {
	const rows, in, out = 9, 3, 6
	rng := rand.New(rand.NewSource(44))
	q := tensor.Randn(rows, in, 0.7, rng)
	dy := tensor.Randn(rows, out, 0.7, rng)
	for i := 0; i < rows; i++ {
		dy.Set(i, 2, 0)
	}
	for _, c := range []struct {
		name string
		bad  float64 // written into W at (1, 2); 0 keeps W finite
	}{{"finite", 0}, {"inf", math.Inf(1)}, {"nan", math.NaN()}} {
		t.Run(c.name, func(t *testing.T) {
			wm := tensor.Randn(in, out, 0.7, rng)
			if c.bad != 0 {
				wm.Set(1, 2, c.bad)
			}
			tp := NewTape()
			h := tp.Tanh(tp.Param(q)) // a tape Var: its gradient comes from the walk
			w := tp.Param(wm)
			var loss *Var
			want := tensor.New(rows, in)
			for s := 0; s < 3; s++ { // the same leaf in several records of one pass
				term := tp.SumAll(tp.Mul(tp.MatMul(h, w), tp.Const(dy)))
				if loss == nil {
					loss = term
				} else {
					loss = tp.Add(loss, term)
				}
				tensor.AddInPlace(want, tensor.MatMulTransB(dy, wm))
			}
			tp.Backward(loss)
			// q and w are the pass's leaves, each listed once; only w is
			// transposed, and only when it is finite.
			if lt := tp.leafT; len(lt) != 2 || lt[0].done || (lt[1].m != nil) != (c.bad == 0) {
				t.Fatalf("leaf transposes %+v: want Wᵀ alone, and only for a finite W", lt)
			}
			nan := 0
			for i, g := range h.Grad.Data {
				wg := want.Data[i]
				if math.IsNaN(wg) {
					nan++
					if !math.IsNaN(g) {
						t.Fatalf("dX[%d] = %v, want NaN (MatMulTransBInto multiplies a zero by a non-finite weight)", i, g)
					}
				} else if math.Float64bits(g) != math.Float64bits(wg) {
					t.Fatalf("dX[%d] = %v, want %v bit for bit", i, g, wg)
				}
			}
			if (nan > 0) != (c.bad != 0) {
				t.Fatalf("%d NaN elements in the expected dX; the fixture does not separate the paths", nan)
			}
		})
	}
}
