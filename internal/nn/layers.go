package nn

import (
	"fmt"
	"math/rand"

	"raal/internal/autodiff"
	"raal/internal/tensor"
)

// Activation selects the non-linearity applied by a Dense layer.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	ReLU
	Tanh
	Sigmoid
	LeakyReLU
)

func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	case LeakyReLU:
		return "leakyrelu"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

func applyActivation(tp *autodiff.Tape, x *autodiff.Var, a Activation) *autodiff.Var {
	switch a {
	case Linear:
		return x
	case ReLU:
		return tp.ReLU(x)
	case Tanh:
		return tp.Tanh(x)
	case Sigmoid:
		return tp.Sigmoid(x)
	case LeakyReLU:
		return tp.LeakyReLU(x, 0.01)
	default:
		panic("nn: unknown activation " + a.String())
	}
}

// fusedAct maps an Activation to the autodiff fused bias+activation kernel,
// when one exists. LeakyReLU is the only activation without a fused form
// (it carries a slope parameter); layers fall back to the unfused pair.
func fusedAct(a Activation) (autodiff.ActFn, bool) {
	switch a {
	case Linear:
		return autodiff.ActIdentity, true
	case ReLU:
		return autodiff.ActReLU, true
	case Tanh:
		return autodiff.ActTanh, true
	case Sigmoid:
		return autodiff.ActSigmoid, true
	}
	return 0, false
}

// biasAct computes act(z + b) for a batch×n pre-activation z and 1×n bias,
// using the fused kernel when the activation supports it.
func biasAct(tp *autodiff.Tape, z *autodiff.Var, b *Param, act Activation) *autodiff.Var {
	if f, ok := fusedAct(act); ok {
		return tp.AddRowApply(z, b.Var, f)
	}
	return applyActivation(tp, tp.AddRow(z, b.Var), act)
}

// Dense is a fully connected layer: act(x·W + b).
type Dense struct {
	W, B *Param
	Act  Activation
}

// NewDense returns a Dense layer with Xavier-initialized weights. The name
// prefixes its parameter names so models can be serialized.
func NewDense(name string, in, out int, act Activation, rng *rand.Rand) *Dense {
	return &Dense{
		W:   NewParam(name+".W", Xavier(in, out, rng)),
		B:   NewParam(name+".b", tensor.New(1, out)),
		Act: act,
	}
}

// Forward applies the layer to a batch×in input and returns batch×out.
func (d *Dense) Forward(tp *autodiff.Tape, x *autodiff.Var) *autodiff.Var {
	return biasAct(tp, tp.MatMul(x, d.W.Var), d.B, d.Act)
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ShareWeights returns a replica that reads the same weight matrices but
// accumulates gradients into its own buffers (see Param.Shadow).
func (d *Dense) ShareWeights() *Dense {
	return &Dense{W: d.W.Shadow(), B: d.B.Shadow(), Act: d.Act}
}

// MLP is a stack of Dense layers.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds a multi-layer perceptron with the given layer sizes
// (len(sizes) ≥ 2). Hidden layers use hiddenAct; the output layer is linear.
func NewMLP(name string, sizes []int, hiddenAct Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hiddenAct
		if i+2 == len(sizes) {
			act = Linear
		}
		m.Layers = append(m.Layers, NewDense(fmt.Sprintf("%s.%d", name, i), sizes[i], sizes[i+1], act, rng))
	}
	return m
}

// Forward applies every layer in order.
func (m *MLP) Forward(tp *autodiff.Tape, x *autodiff.Var) *autodiff.Var {
	for _, l := range m.Layers {
		x = l.Forward(tp, x)
	}
	return x
}

// Params returns all trainable parameters.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ShareWeights returns a replica that reads the same weight matrices but
// accumulates gradients into its own buffers (see Param.Shadow).
func (m *MLP) ShareWeights() *MLP {
	r := &MLP{Layers: make([]*Dense, len(m.Layers))}
	for i, l := range m.Layers {
		r.Layers[i] = l.ShareWeights()
	}
	return r
}
