// Package nn builds neural-network layers, optimizers, and model
// serialization on top of the autodiff engine. It provides exactly the
// building blocks the paper's deep cost models need: dense layers, an LSTM
// (the plan-feature layer), a 1-D convolution (the RAAC ablation), and Adam.
//
// Every layer, parameter and optimizer computes in float64, and there is
// one of each: one LSTM, one Dense, one MLP and one Conv1D. No layer
// branches on the tape: ForwardStacked runs the same fused cell over the
// same ragged batch on a recording and on a forward-only tape.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"raal/internal/autodiff"
	"raal/internal/tensor"
)

// Param is a named trainable matrix. The embedded Var keeps its identity
// across forward passes so gradients accumulate into one place and the
// optimizer can find them.
type Param struct {
	Name string
	Var  *autodiff.Var
}

// NewParam wraps m as a trainable parameter.
func NewParam(name string, m *tensor.Matrix) *Param {
	return &Param{Name: name, Var: (&autodiff.Tape{}).Param(m)}
}

// Value returns the parameter's current weights.
func (p *Param) Value() *tensor.Matrix { return p.Var.Value }

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	if p.Var.Grad != nil {
		p.Var.Grad.Zero()
	}
}

// Shadow returns a parameter that shares p's weight matrix but owns an
// independent gradient accumulator. Data-parallel training gives each
// shard its own shadow set, so concurrent backward passes never touch the
// same gradient buffer; the shadows are then summed into the base set at a
// barrier (AccumulateGrads), which keeps the reduction ordered and
// deterministic instead of serializing every += behind a mutex.
func (p *Param) Shadow() *Param {
	return &Param{Name: p.Name, Var: (&autodiff.Tape{}).Param(p.Var.Value)}
}

// ShadowParams returns a shadow (shared weights, private gradients) of
// every parameter in params, in the same order.
func ShadowParams(params []*Param) []*Param {
	out := make([]*Param, len(params))
	for i, p := range params {
		out[i] = p.Shadow()
	}
	return out
}

// AccumulateGrads adds scale times each src gradient into the matching dst
// gradient and clears src, leaving the shadow set ready for the next
// shard. dst and src must be parallel slices (same parameters in the same
// order, as produced by ShadowParams); src entries that never accumulated
// a gradient are skipped. Callers merge shards in a fixed order so the
// floating-point reduction — and therefore training — is deterministic
// for any worker count.
func AccumulateGrads(dst, src []*Param, scale float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: AccumulateGrads length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, s := range src {
		if s.Var.Grad == nil {
			continue
		}
		d := dst[i]
		if !d.Var.Value.SameShape(s.Var.Value) {
			panic(fmt.Sprintf("nn: AccumulateGrads shape mismatch for %q", d.Name))
		}
		if d.Var.Grad == nil {
			d.Var.Grad = tensor.New(d.Var.Value.Rows, d.Var.Value.Cols)
		}
		tensor.AxpyInPlace(d.Var.Grad, scale, s.Var.Grad)
		s.ZeroGrad()
	}
}

// Xavier returns Glorot-uniform initialized weights for a fanIn×fanOut
// matrix, drawn from rng.
func Xavier(fanIn, fanOut int, rng *rand.Rand) *tensor.Matrix {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return tensor.Uniform(fanIn, fanOut, -limit, limit, rng)
}

// ClipGradNorm rescales all parameter gradients so their global L2 norm is
// at most maxNorm. It returns the pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	norm := GradNorm(params)
	if norm > maxNorm && norm > 0 {
		s := maxNorm / norm
		for _, p := range params {
			if p.Var.Grad == nil {
				continue
			}
			for i := range p.Var.Grad.Data {
				p.Var.Grad.Data[i] *= s
			}
		}
	}
	return norm
}

// GradNorm returns the global L2 norm of all parameter gradients.
func GradNorm(params []*Param) float64 {
	var sq float64
	for _, p := range params {
		if p.Var.Grad == nil {
			continue
		}
		for _, g := range p.Var.Grad.Data {
			// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
			sq += float64(g * g)
		}
	}
	return math.Sqrt(sq)
}

// CountParams returns the total number of scalar weights.
func CountParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += len(p.Var.Value.Data)
	}
	return n
}

func checkUniqueNames(params []*Param) error {
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if seen[p.Name] {
			return fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
	}
	return nil
}
