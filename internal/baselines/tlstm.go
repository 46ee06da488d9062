// Package baselines implements the two comparison systems the paper
// evaluates against: TLSTM, the state-of-the-art learned cost model for
// relational databases (Sun & Li, 2019), and GPSJ, the analytical cost
// model for Spark SQL (Baldacci & Golfarelli, 2019).
package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"raal/internal/autodiff"
	"raal/internal/core"
	"raal/internal/encode"
	"raal/internal/metrics"
	"raal/internal/nn"
	"raal/internal/tensor"
)

// TLSTM is a child-sum tree-LSTM cost model: each plan operator is an
// LSTM unit whose inputs are the operator's features and whose recurrent
// state flows from its children up the plan tree (the paper's description
// in Sec. V-A). It does not see resources — it was designed for RDBMSs
// with a fixed resource environment.
type TLSTM struct {
	In, Hidden int

	w  *nn.Param // In×3H: input projections for i, o, g gates
	u  *nn.Param // H×3H: child-sum recurrent projections
	b  *nn.Param // 1×3H
	wf *nn.Param // In×H: forget gate input projection
	uf *nn.Param // H×H: per-child forget gate projection
	bf *nn.Param // 1×H

	head *nn.MLP
}

// TLSTMConfig sets the model dimensions.
type TLSTMConfig struct {
	SemDim   int // node semantic width (matches the encoder)
	MaxNodes int
	Hidden   int
	Seed     int64
}

// NewTLSTM builds an untrained TLSTM. Node inputs are the semantic
// embedding plus per-node statistics (TLSTM models tree structure through
// recursion, not through structure features).
func NewTLSTM(cfg TLSTMConfig) *TLSTM {
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := cfg.SemDim + 2 // nodeStatFeatures
	h := cfg.Hidden
	t := &TLSTM{In: in, Hidden: h}
	t.w = nn.NewParam("tlstm.w", nn.Xavier(in, 3*h, rng))
	t.u = nn.NewParam("tlstm.u", nn.Xavier(h, 3*h, rng))
	t.b = nn.NewParam("tlstm.b", tensor.New(1, 3*h))
	t.wf = nn.NewParam("tlstm.wf", nn.Xavier(in, h, rng))
	t.uf = nn.NewParam("tlstm.uf", nn.Xavier(h, h, rng))
	bf := tensor.New(1, h)
	bf.Fill(1) // forget bias
	t.bf = nn.NewParam("tlstm.bf", bf)
	t.head = nn.NewMLP("tlstm.head", []int{h, h, 1}, nn.ReLU, rng)
	return t
}

// Params returns all trainable parameters.
func (t *TLSTM) Params() []*nn.Param {
	ps := []*nn.Param{t.w, t.u, t.b, t.wf, t.uf, t.bf}
	return append(ps, t.head.Params()...)
}

// nodeInput extracts the TLSTM input row for sample node i: semantic
// embedding and the two per-node statistics, skipping the structure block.
func (t *TLSTM) nodeInput(s *encode.Sample, i int) *tensor.Matrix {
	row := s.Nodes.Row(i)
	sem := t.In - 2
	out := tensor.New(1, t.In)
	structLen := s.Nodes.Cols - sem - 2
	copy(out.Data[:sem], row[:sem])
	copy(out.Data[sem:], row[sem+structLen:])
	return out
}

// encodeTree runs the tree recursion and returns the root's hidden state.
func (t *TLSTM) encodeTree(tp *autodiff.Tape, s *encode.Sample) *autodiff.Var {
	n := 0
	for _, m := range s.Mask {
		if m {
			n++
		}
	}
	if n == 0 {
		return tp.Const(tensor.New(1, t.Hidden))
	}
	type state struct{ h, c *autodiff.Var }
	states := make([]state, n)
	// Execution order is bottom-up: children always precede parents.
	for i := 0; i < n; i++ {
		x := tp.Const(t.nodeInput(s, i))
		var hsum, csum *autodiff.Var
		for j := 0; j < i; j++ {
			if !s.Children[i][j] {
				continue
			}
			// Per-child forget gate: f_j = σ(Wf·x + Uf·h_j + bf)
			fj := tp.Sigmoid(tp.AddRow(tp.Add(tp.MatMul(x, t.wf.Var), tp.MatMul(states[j].h, t.uf.Var)), t.bf.Var))
			fc := tp.Mul(fj, states[j].c)
			if hsum == nil {
				hsum = states[j].h
				csum = fc
			} else {
				hsum = tp.Add(hsum, states[j].h)
				csum = tp.Add(csum, fc)
			}
		}
		if hsum == nil {
			hsum = tp.Const(tensor.New(1, t.Hidden))
			csum = tp.Const(tensor.New(1, t.Hidden))
		}
		gates := tp.AddRow(tp.Add(tp.MatMul(x, t.w.Var), tp.MatMul(hsum, t.u.Var)), t.b.Var)
		h := t.Hidden
		ig := tp.Sigmoid(tp.SliceCols(gates, 0, h))
		og := tp.Sigmoid(tp.SliceCols(gates, h, 2*h))
		gg := tp.Tanh(tp.SliceCols(gates, 2*h, 3*h))
		c := tp.Add(csum, tp.Mul(ig, gg))
		states[i] = state{h: tp.Mul(og, tp.Tanh(c)), c: c}
	}
	return states[n-1].h // root is last in bottom-up order
}

func (t *TLSTM) forward(tp *autodiff.Tape, batch []*encode.Sample) *autodiff.Var {
	outs := tp.NewVars(len(batch))
	for i, s := range batch {
		outs[i] = t.head.Forward(tp, t.encodeTree(tp, s))
	}
	return tp.ConcatRows(outs...)
}

// TLSTMTrainResult reports training statistics.
type TLSTMTrainResult struct {
	LossCurve []float64
	Duration  time.Duration
}

// Fit trains the model with Adam on log-cost targets (same label scale as
// the core models, so metrics are comparable).
func (t *TLSTM) Fit(samples []*encode.Sample, epochs, batchSize int, lr float64, seed int64) (*TLSTMTrainResult, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("baselines: no training samples")
	}
	if epochs <= 0 || batchSize <= 0 {
		return nil, fmt.Errorf("baselines: invalid training config")
	}
	rng := rand.New(rand.NewSource(seed))
	opt := nn.NewAdam(lr)
	params := t.Params()
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	// One warm tape from the process's pool serves every batch of the run.
	tp := core.LeaseTape(true)
	start := time.Now()
	res := &TLSTMTrainResult{}
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var sum float64
		batches := 0
		for lo := 0; lo < len(idx); lo += batchSize {
			hi := lo + batchSize
			if hi > len(idx) {
				hi = len(idx)
			}
			batch := make([]*encode.Sample, hi-lo)
			target := tensor.New(hi-lo, 1)
			for i := lo; i < hi; i++ {
				batch[i-lo] = samples[idx[i]]
				target.Set(i-lo, 0, math.Log1p(samples[idx[i]].CostSec))
			}
			tp.Reset()
			loss := tp.MSE(t.forward(tp, batch), target)
			tp.Backward(loss)
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
			sum += loss.Value.Data[0]
			batches++
		}
		res.LossCurve = append(res.LossCurve, sum/float64(batches))
	}
	core.ReturnTape(tp)
	res.Duration = time.Since(start)
	return res, nil
}

// Predict returns estimated costs in seconds.
func (t *TLSTM) Predict(samples []*encode.Sample) []float64 {
	out := make([]float64, len(samples))
	const chunk = 64
	tp := core.LeaseTape(false)
	defer core.ReturnTape(tp)
	for lo := 0; lo < len(samples); lo += chunk {
		hi := lo + chunk
		if hi > len(samples) {
			hi = len(samples)
		}
		tp.Reset()
		pred := t.forward(tp, samples[lo:hi])
		for i := lo; i < hi; i++ {
			v := math.Expm1(pred.Value.At(i-lo, 0))
			if v < 0 {
				v = 0
			}
			out[i] = v
		}
	}
	return out
}

// Evaluate computes the paper's metrics (MSE on the log scale, like the
// core models).
func (t *TLSTM) Evaluate(samples []*encode.Sample) (metrics.Result, error) {
	if len(samples) == 0 {
		return metrics.Result{}, fmt.Errorf("baselines: no evaluation samples")
	}
	est := t.Predict(samples)
	actual := make([]float64, len(samples))
	actLog := make([]float64, len(samples))
	estLog := make([]float64, len(samples))
	for i, s := range samples {
		actual[i] = s.CostSec
		actLog[i] = math.Log1p(s.CostSec)
		estLog[i] = math.Log1p(est[i])
	}
	res, err := metrics.Evaluate(actual, est)
	if err != nil {
		return metrics.Result{}, err
	}
	res.MSE = metrics.MSE(actLog, estLog)
	return res, nil
}
