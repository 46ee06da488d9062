package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"raal/internal/autodiff"
	"raal/internal/tensor"
)

// gradCheckModel numerically verifies d(loss)/d(param) for every parameter
// of an arbitrary forward function.
func gradCheckModel(t *testing.T, params []*Param, forward func(tp *autodiff.Tape) *autodiff.Var) {
	t.Helper()
	tp := autodiff.NewTape()
	loss := forward(tp)
	tp.Backward(loss)

	const eps = 1e-6
	for _, p := range params {
		w := p.Var.Value
		analytic := p.Var.Grad
		if analytic == nil {
			analytic = tensor.New(w.Rows, w.Cols)
		}
		for i := range w.Data {
			orig := w.Data[i]
			w.Data[i] = orig + eps
			up := forward(autodiff.NewTape()).Value.Data[0]
			w.Data[i] = orig - eps
			down := forward(autodiff.NewTape()).Value.Data[0]
			w.Data[i] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-analytic.Data[i]) > 1e-4 {
				t.Fatalf("param %s[%d]: analytic %v numeric %v", p.Name, i, analytic.Data[i], num)
			}
		}
		p.ZeroGrad()
	}
}

func TestDenseGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 3, 2, Tanh, rng)
	x := tensor.Randn(4, 3, 1, rng)
	target := tensor.Randn(4, 2, 1, rng)
	gradCheckModel(t, d.Params(), func(tp *autodiff.Tape) *autodiff.Var {
		return tp.MSE(d.Forward(tp, tp.Const(x)), target)
	})
}

func TestLSTMGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLSTM("l", 3, 4, rng)
	const steps = 3
	x := tensor.Randn(steps*2, 3, 1, rng) // three steps of batch 2, stacked
	target := tensor.Randn(2, 4, 1, rng)
	gradCheckModel(t, l.Params(), func(tp *autodiff.Tape) *autodiff.Var {
		hs := l.ForwardStacked(tp, tp.Const(x), dense(2, steps))
		return tp.MSE(hs[steps-1], target)
	})
}

func TestConv1DGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv1D("c", 3, 2, 3, Tanh, rng)
	x := tensor.Randn(5, 3, 1, rng)
	target := tensor.Randn(5, 2, 1, rng)
	gradCheckModel(t, c.Params(), func(tp *autodiff.Tape) *autodiff.Var {
		return tp.MSE(c.Forward(tp, tp.Const(x)), target)
	})
}

func TestConv1DOutputShapeAndPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv1D("c", 2, 3, 3, Linear, rng)
	x := tensor.Randn(4, 2, 1, rng)
	tp := autodiff.NewTape()
	out := c.Forward(tp, tp.Const(x))
	if out.Value.Rows != 4 || out.Value.Cols != 3 {
		t.Fatalf("shape %dx%d, want 4x3", out.Value.Rows, out.Value.Cols)
	}
	// The first row's window is [0, x0, x1]; verify against direct compute.
	w := c.W.Value()
	var want float64
	for k := 0; k < 2; k++ { // window slots 1 and 2 (slot 0 is padding)
		for j := 0; j < 2; j++ {
			want += x.At(k, j) * w.At((k+1)*2+j, 0)
		}
	}
	want += c.B.Value().At(0, 0)
	if math.Abs(out.Value.At(0, 0)-want) > 1e-12 {
		t.Fatalf("padded conv wrong: got %v want %v", out.Value.At(0, 0), want)
	}
}

func TestConv1DEvenWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for even width")
		}
	}()
	NewConv1D("c", 2, 2, 4, Linear, rand.New(rand.NewSource(1)))
}

func TestMLPOverfitsTinyRegression(t *testing.T) {
	// y = sin(x1) + 0.5·x2 on 16 points: a 2-layer MLP must drive MSE
	// below 1e-3 with Adam.
	rng := rand.New(rand.NewSource(5))
	m := NewMLP("m", []int{2, 16, 1}, Tanh, rng)
	n := 16
	x := tensor.New(n, 2)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, math.Sin(a)+0.5*b)
	}
	opt := NewAdam(0.01)
	var last float64
	for epoch := 0; epoch < 400; epoch++ {
		tp := autodiff.NewTape()
		loss := tp.MSE(m.Forward(tp, tp.Const(x)), y)
		tp.Backward(loss)
		opt.Step(m.Params())
		last = loss.Value.Data[0]
	}
	if last > 1e-3 {
		t.Fatalf("MLP failed to overfit: final MSE %v", last)
	}
}

func TestLSTMLearnsSequenceSum(t *testing.T) {
	// Target: sum of a length-4 scalar sequence. The LSTM must beat the
	// best constant predictor by a wide margin.
	rng := rand.New(rand.NewSource(6))
	l := NewLSTM("l", 1, 8, rng)
	head := NewDense("h", 8, 1, Linear, rng)
	params := append(l.Params(), head.Params()...)
	opt := NewAdam(0.02)

	const batch, steps = 16, 4
	makeBatch := func() (*tensor.Matrix, *tensor.Matrix) {
		x := tensor.New(steps*batch, 1) // row t·batch+i is sequence i's step t
		y := tensor.New(batch, 1)
		for i := 0; i < batch; i++ {
			var sum float64
			for t := 0; t < steps; t++ {
				v := rng.Float64()*2 - 1
				x.Set(t*batch+i, 0, v)
				sum += v
			}
			y.Set(i, 0, sum)
		}
		return x, y
	}
	var last float64
	for iter := 0; iter < 300; iter++ {
		x, y := makeBatch()
		tp := autodiff.NewTape()
		hs := l.ForwardStacked(tp, tp.Const(x), dense(batch, steps))
		pred := head.Forward(tp, hs[steps-1])
		loss := tp.MSE(pred, y)
		tp.Backward(loss)
		ClipGradNorm(params, 5)
		opt.Step(params)
		last = loss.Value.Data[0]
	}
	// Var of sum of 4 U(-1,1) is 4/3; a useful model gets far below that.
	if last > 0.1 {
		t.Fatalf("LSTM failed to learn sequence sum: final MSE %v", last)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("p", tensor.FromRows([][]float64{{1, 1}}))
	tp := autodiff.NewTape()
	v := tp.Scale(p.Var, 10)
	tp.Backward(tp.SumAll(v))
	// grad = [10, 10], norm = 10√2
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(pre-10*math.Sqrt2) > 1e-9 {
		t.Fatalf("pre-clip norm %v", pre)
	}
	if post := GradNorm([]*Param{p}); math.Abs(post-1) > 1e-9 {
		t.Fatalf("post-clip norm %v", post)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := NewMLP("m", []int{3, 5, 1}, Tanh, rng)
	dst := NewMLP("m", []int{3, 5, 1}, Tanh, rand.New(rand.NewSource(99)))

	var buf bytes.Buffer
	if err := Save(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := Load(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range src.Params() {
		if !tensor.AllClose(p.Value(), dst.Params()[i].Value(), 0) {
			t.Fatalf("param %s not restored", p.Name)
		}
	}
	// Same inputs must now give identical outputs.
	x := tensor.Randn(2, 3, 1, rng)
	a := src.Forward(autodiff.NewTape(), autodiff.NewTape().Const(x))
	b := dst.Forward(autodiff.NewTape(), autodiff.NewTape().Const(x))
	if !tensor.AllClose(a.Value, b.Value, 0) {
		t.Fatal("restored model predicts differently")
	}
}

func TestLoadShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := NewDense("d", 2, 2, Linear, rng)
	dst := NewDense("d", 2, 3, Linear, rng)
	var buf bytes.Buffer
	if err := Save(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := Load(&buf, dst.Params()); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestLoadMissingParam(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := NewDense("a", 2, 2, Linear, rng)
	dst := NewDense("b", 2, 2, Linear, rng)
	var buf bytes.Buffer
	if err := Save(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := Load(&buf, dst.Params()); err == nil {
		t.Fatal("expected missing-parameter error")
	}
}

func TestSaveDuplicateNames(t *testing.T) {
	p1 := NewParam("same", tensor.New(1, 1))
	p2 := NewParam("same", tensor.New(1, 1))
	var buf bytes.Buffer
	if err := Save(&buf, []*Param{p1, p2}); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestCountParams(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDense("d", 3, 4, Linear, rng)
	if n := CountParams(d.Params()); n != 3*4+4 {
		t.Fatalf("CountParams = %d, want 16", n)
	}
}

func TestXavierRange(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := Xavier(10, 10, rng)
	limit := math.Sqrt(6.0 / 20.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("xavier value %v outside ±%v", v, limit)
		}
	}
}

func TestForgetGateBiasInit(t *testing.T) {
	l := NewLSTM("l", 2, 3, rand.New(rand.NewSource(13)))
	b := l.B.Value()
	for j := 0; j < 3; j++ {
		if b.At(0, j) != 0 {
			t.Fatal("input gate bias should start at 0")
		}
		if b.At(0, 3+j) != 1 {
			t.Fatal("forget gate bias should start at 1")
		}
	}
}

func TestActivationString(t *testing.T) {
	if Linear.String() != "linear" || ReLU.String() != "relu" {
		t.Fatal("activation names wrong")
	}
}
