package core

import (
	"math"
	"math/rand"
	"testing"

	"raal/internal/autodiff"
	"raal/internal/encode"
	"raal/internal/sparksim"
	"raal/internal/tensor"
)

// chainSample fabricates a chain-shaped plan of n real nodes padded to
// maxNodes, in the encoder's row layout. Every padding row is NaN, so a
// padding row that any layer reads turns a value or a gradient NaN.
func chainSample(rng *rand.Rand, maxNodes, n int) *encode.Sample {
	s := &encode.Sample{
		Nodes:    tensor.New(maxNodes, tSem+maxNodes+2),
		Mask:     make([]bool, maxNodes),
		Children: make([][]bool, maxNodes),
		Resource: make([]float64, sparksim.NumFeatures),
		Stats:    make([]float64, tStats),
		CostSec:  1 + rng.Float64(),
	}
	for i := range s.Children {
		s.Children[i] = make([]bool, maxNodes)
		row := s.Nodes.Row(i)
		if i >= n {
			for j := range row {
				row[j] = math.NaN()
			}
			continue
		}
		s.Mask[i] = true
		for d := 0; d < tSem; d++ {
			row[d] = rng.Float64()
		}
		if i > 0 {
			row[tSem+i-1] = 1
			s.Children[i][i-1] = true
			s.Nodes.Row(i - 1)[tSem+i] = -1
		}
		row[tSem+maxNodes], row[tSem+maxNodes+1] = rng.Float64(), rng.Float64()
	}
	for j := range s.Resource {
		s.Resource[j] = rng.Float64()
	}
	for j := range s.Stats {
		s.Stats[j] = rng.Float64()
	}
	return s
}

// TestTrainForwardUnrollsActiveRowsOnly pins that a training step over
// plans of active lengths {3, 7, 12, 12} pays for no padding, in every
// variant. Each plan's feature rows — the values its node attention
// scores (an n×n matrix), its resource keys and its pooling read — number
// its own length, not the batch's longest. And the plan-feature layer's
// input holds the Σ lens = 34 real node rows, not the 48 of a padded
// unroll: every padding row is NaN, and a single one in the input
// projection X·Wx would turn Wx's gradient NaN (0·NaN), as it would any
// attention weight's. A slowdown fails no other test.
func TestTrainForwardUnrollsActiveRowsOnly(t *testing.T) {
	lens := []int{3, 7, 12, 12}
	const maxNodes = 12
	cfg := DefaultConfig(tSem, maxNodes)
	cfg.Hidden, cfg.K = 16, 8
	rng := rand.New(rand.NewSource(38))
	batch := make([]*encode.Sample, len(lens))
	for k, n := range lens {
		batch[k] = chainSample(rng, maxNodes, n)
	}
	for _, v := range goldenVariants() {
		m := NewModel(v, cfg)
		pre := m.prefix(autodiff.NewTape(), batch, nil)
		for k, n := range lens {
			if h := pre.h[k]; h.Value.Rows != n {
				t.Fatalf("%s: plan %d (length %d) has %d feature rows", v.Name, k, n, h.Value.Rows)
			}
			if keysT := pre.keysT[k]; v.ResourceAttention && keysT.Value.Cols != n {
				t.Fatalf("%s: plan %d (length %d) has %d resource keys", v.Name, k, n, keysT.Value.Cols)
			}
		}

		sh := &shardRun{model: m, tape: autodiff.NewTape()}
		if loss := sh.step(batch, []int{0, 1, 2, 3}); math.IsNaN(loss) {
			t.Fatalf("%s: training loss is NaN: a padding row was read", v.Name)
		}
		for _, p := range m.Params() {
			for _, g := range p.Var.Grad.Data {
				if math.IsNaN(g) {
					t.Fatalf("%s: gradient of %s is NaN: a padding row entered the graph", v.Name, p.Name)
				}
			}
		}
	}
}

// TestRaggedBatchAllocatesNoMoreThanUniform pins that raggedness is free
// in heap allocations: a warm serial forward of a mixed-length chunk (the
// flat schedule) and a warm training step over a mixed-length batch each
// allocate no more than the same call over equally long plans.
func TestRaggedBatchAllocatesNoMoreThanUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	uniform, mixed := make([]*encode.Sample, 8), make([]*encode.Sample, 8)
	for k := range uniform {
		uniform[k] = chainSample(rng, tNodes, tNodes)
		mixed[k] = chainSample(rng, tNodes, 1+k%tNodes)
	}
	sel := []int{0, 1, 2, 3, 4, 5, 6, 7}
	m := NewModel(RAAL(), testConfig())
	sh := &shardRun{model: m, tape: autodiff.NewTape()}
	for name, run := range map[string]func([]*encode.Sample){
		"predictCtx": func(s []*encode.Sample) {
			predictFlat(m, s, schedOpts{workers: 1, chunk: len(s)})
		},
		"trainStep": func(s []*encode.Sample) { sh.step(s, sel) },
	} {
		run(uniform)
		run(mixed)
		u := testing.AllocsPerRun(20, func() { run(uniform) })
		g := testing.AllocsPerRun(20, func() { run(mixed) })
		if g > u {
			t.Errorf("%s: a mixed-length batch makes %v heap allocations, a uniform one %v", name, g, u)
		}
	}
}
