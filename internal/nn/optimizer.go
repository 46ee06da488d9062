package nn

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"raal/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015), the paper's
// training algorithm of choice for all learned cost models.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix

	// A Step's bias corrections, and the share of its parameters that the
	// second goroutine updates. hiRun is a.updateHi, made once, so a Step
	// allocates nothing.
	c1, c2 float64
	hi     []*Param
	hiRun  func()
	hiWG   sync.WaitGroup
}

// NewAdam returns an Adam optimizer with the usual defaults for any zero
// hyperparameter (lr=0.001, β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	if lr == 0 {
		lr = 1e-3
	}
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Matrix),
		v: make(map[*Param]*tensor.Matrix),
	}
}

// AdamState is the serializable optimizer state: the step counter and the
// first/second moment vectors keyed by parameter name. Together with the
// weights it is everything Adam needs to continue a run as if it had
// never stopped — see Export/Restore and core.TrainState.
type AdamState struct {
	T    int
	M, V map[string][]float64
}

// Export copies the optimizer's moments for params into a snapshot keyed
// by parameter name. Parameters the optimizer has not stepped yet (no
// gradient ever reached them) are omitted; Restore treats absence as a
// cold start for that parameter.
func (a *Adam) Export(params []*Param) AdamState {
	st := AdamState{T: a.t, M: map[string][]float64{}, V: map[string][]float64{}}
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			continue
		}
		st.M[p.Name] = slices.Clone(m.Data)
		st.V[p.Name] = slices.Clone(a.v[p].Data)
	}
	return st
}

// Restore loads a previously Exported snapshot into the optimizer so the
// next Step continues the original trajectory bit for bit. Every state
// entry must match a parameter in params with the same element count —
// a leftover or misshapen entry means the snapshot came from a different
// architecture or configuration, which is rejected with a descriptive
// error rather than silently corrupting the continuation.
func (a *Adam) Restore(params []*Param, st AdamState) error {
	byName := make(map[string]*Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	for name := range st.V {
		if _, ok := st.M[name]; !ok {
			if byName[name] == nil {
				return unknownParamError(name)
			}
			return fmt.Errorf("nn: optimizer state for %q is missing its first moment (truncated or corrupt state)", name)
		}
	}
	for name, m := range st.M {
		p, ok := byName[name]
		if !ok {
			return unknownParamError(name)
		}
		v, ok := st.V[name]
		if !ok {
			return fmt.Errorf("nn: optimizer state for %q is missing its second moment (truncated or corrupt state)", name)
		}
		n := len(p.Var.Value.Data)
		if len(m) != n || len(v) != n {
			return fmt.Errorf("nn: optimizer state for %q holds %d/%d moment values but the parameter has %d (architecture or config mismatch)",
				name, len(m), len(v), n)
		}
		mm := tensor.New(p.Var.Value.Rows, p.Var.Value.Cols)
		vv := tensor.New(p.Var.Value.Rows, p.Var.Value.Cols)
		copy(mm.Data, m)
		copy(vv.Data, v)
		a.m[p] = mm
		a.v[p] = vv
	}
	a.t = st.T
	return nil
}

func unknownParamError(name string) error {
	return fmt.Errorf("nn: optimizer state holds parameter %q which this model does not have (architecture or config mismatch)", name)
}

// adamOneGoroutine, while set, makes every Adam.Step run on its caller's
// goroutine alone (AdamOnOneGoroutine).
var adamOneGoroutine atomic.Bool

// AdamOnOneGoroutine makes every Adam.Step in the process update all its
// parameters on the caller's goroutine until it is called with false. It
// is a test hook: the schedule must change no bit.
func AdamOnOneGoroutine(on bool) { adamOneGoroutine.Store(on) }

// Step applies one Adam update and zeroes the gradients. It first creates
// the moments of any parameter stepped for the first time, then updates
// two contiguous parts of params holding about half the elements each, the
// second on another goroutine. Each element's update reads only its own
// weight, gradient and moments, so the split changes no bit.
func (a *Adam) Step(params []*Param) {
	a.t++
	a.c1 = 1 - math.Pow(a.Beta1, float64(a.t))
	a.c2 = 1 - math.Pow(a.Beta2, float64(a.t))
	total := 0
	for _, p := range params {
		if p.Var.Grad == nil {
			continue
		}
		w := p.Var.Value
		if _, ok := a.m[p]; !ok {
			a.m[p] = tensor.New(w.Rows, w.Cols)
			a.v[p] = tensor.New(w.Rows, w.Cols)
		}
		total += len(w.Data)
	}
	k, lo := 0, 0
	for ; k < len(params) && 2*lo < total; k++ {
		if params[k].Var.Grad != nil {
			lo += len(params[k].Var.Value.Data)
		}
	}
	if k == len(params) || adamOneGoroutine.Load() {
		a.update(params)
		return
	}
	if a.hiRun == nil {
		a.hiRun = a.updateHi
	}
	a.hi = params[k:]
	a.hiWG.Add(1)
	go a.hiRun()
	a.update(params[:k])
	a.hiWG.Wait()
	a.hi = nil
}

func (a *Adam) updateHi() {
	defer a.hiWG.Done()
	a.update(a.hi)
}

// update applies the step to params and zeroes their gradients.
func (a *Adam) update(params []*Param) {
	b1, b2, lr, eps, c1, c2 := a.Beta1, a.Beta2, a.LR, a.Eps, a.c1, a.c2
	for _, p := range params {
		g := p.Var.Grad
		if g == nil {
			continue
		}
		w, m, v := p.Var.Value, a.m[p], a.v[p]
		for i := range w.Data {
			gi := g.Data[i]
			// float64(x*y) rounds the product, which forbids a fused multiply-add (Go spec).
			m.Data[i] = float64(b1*m.Data[i]) + float64((1-b1)*gi)
			v.Data[i] = float64(b2*v.Data[i]) + float64((1-b2)*gi*gi)
			mh := m.Data[i] / c1
			vh := v.Data[i] / c2
			w.Data[i] -= lr * mh / (math.Sqrt(vh) + eps)
		}
		p.ZeroGrad()
	}
}
