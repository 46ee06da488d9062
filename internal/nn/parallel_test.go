package nn

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	"raal/internal/autodiff"
	"raal/internal/tensor"
)

func TestLoadTruncatedValues(t *testing.T) {
	// Hand-build a snapshot whose flat value slice is shorter than
	// Rows*Cols; before validation this silently loaded partial weights.
	s := snapshot{
		Names:  []string{"d.W"},
		Rows:   []int{2},
		Cols:   []int{3},
		Values: [][]float64{{1, 2, 3, 4}}, // want 6
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		t.Fatal(err)
	}
	p := NewParam("d.W", tensor.New(2, 3))
	err := Load(&buf, []*Param{p})
	if err == nil {
		t.Fatal("expected truncated-snapshot error")
	}
	if !strings.Contains(err.Error(), "d.W") {
		t.Fatalf("error should name the parameter: %v", err)
	}
	for _, v := range p.Value().Data {
		if v != 0 {
			t.Fatalf("weights must not be partially loaded, got %v", p.Value().Data)
		}
	}
}

func TestLoadInconsistentSnapshot(t *testing.T) {
	// A snapshot whose parallel slices disagree must error, not panic.
	s := snapshot{
		Names:  []string{"a", "b"},
		Rows:   []int{1},
		Cols:   []int{1},
		Values: [][]float64{{1}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		t.Fatal(err)
	}
	p := NewParam("a", tensor.New(1, 1))
	if err := Load(&buf, []*Param{p}); err == nil {
		t.Fatal("expected corrupt-snapshot error")
	}
}

func TestShadowSharesWeightsNotGrads(t *testing.T) {
	p := NewParam("w", tensor.FromSlice(1, 2, []float64{1, 2}))
	sh := p.Shadow()
	if sh.Var.Value != p.Var.Value {
		t.Fatal("shadow must share the weight matrix")
	}
	if sh.Name != p.Name {
		t.Fatal("shadow must keep the parameter name")
	}
	// Gradients accumulated through the shadow must not touch the base.
	tp := autodiff.NewTape()
	loss := tp.SumAll(tp.Scale(sh.Var, 3))
	tp.Backward(loss)
	if p.Var.Grad != nil {
		t.Fatal("base gradient must stay untouched by shadow backward")
	}
	if sh.Var.Grad == nil || sh.Var.Grad.Data[0] != 3 {
		t.Fatalf("shadow gradient wrong: %v", sh.Var.Grad)
	}
}

func TestAccumulateGrads(t *testing.T) {
	base := []*Param{
		NewParam("a", tensor.FromSlice(1, 2, []float64{0, 0})),
		NewParam("b", tensor.FromSlice(1, 1, []float64{0})),
	}
	sh := ShadowParams(base)
	sh[0].Var.Grad = tensor.FromSlice(1, 2, []float64{2, 4})
	// sh[1] has no gradient and must be skipped.

	AccumulateGrads(base, sh, 0.5)
	if g := base[0].Var.Grad; g == nil || g.Data[0] != 1 || g.Data[1] != 2 {
		t.Fatalf("merged grad wrong: %v", base[0].Var.Grad)
	}
	if base[1].Var.Grad != nil {
		t.Fatal("gradient-less shadow must be skipped")
	}
	for _, v := range sh[0].Var.Grad.Data {
		if v != 0 {
			t.Fatal("shadow gradient must be cleared after merge")
		}
	}

	// A second ordered merge accumulates on top.
	sh[0].Var.Grad.Data[0], sh[0].Var.Grad.Data[1] = 10, 10
	AccumulateGrads(base, sh, 1)
	if g := base[0].Var.Grad; g.Data[0] != 11 || g.Data[1] != 12 {
		t.Fatalf("second merge wrong: %v", g)
	}
}

func TestShareWeightsLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lstm := NewLSTM("l", 3, 4, rng)
	conv := NewConv1D("c", 3, 4, 3, ReLU, rng)
	mlp := NewMLP("m", []int{3, 4, 1}, ReLU, rng)
	for name, pair := range map[string][2][]*Param{
		"lstm": {lstm.Params(), lstm.ShareWeights().Params()},
		"conv": {conv.Params(), conv.ShareWeights().Params()},
		"mlp":  {mlp.Params(), mlp.ShareWeights().Params()},
	} {
		base, rep := pair[0], pair[1]
		if len(base) != len(rep) {
			t.Fatalf("%s: param count mismatch", name)
		}
		for i := range base {
			if base[i].Name != rep[i].Name {
				t.Fatalf("%s: param order differs at %d: %s vs %s", name, i, base[i].Name, rep[i].Name)
			}
			if base[i].Var.Value != rep[i].Var.Value {
				t.Fatalf("%s: %s does not share weights", name, base[i].Name)
			}
			if base[i].Var == rep[i].Var {
				t.Fatalf("%s: %s shares its gradient accumulator", name, base[i].Name)
			}
		}
	}
}
