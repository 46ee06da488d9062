package core

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"raal/internal/encode"
	"raal/internal/sparksim"
	"raal/internal/tensor"
)

const (
	tSem   = 4
	tNodes = 6
	tRes   = sparksim.NumFeatures
	tStats = 6
)

// synthSample fabricates an encoded plan whose cost depends on both node
// content and the resource vector, so resource-aware models have signal to
// find.
func synthSample(rng *rand.Rand) *encode.Sample { return synthSampleAt(rng, tSem, tNodes) }

// synthSampleAt is synthSample at sem semantic columns and nodes padded
// plan nodes, of which 3..nodes are real.
func synthSampleAt(rng *rand.Rand, sem, nodes int) *encode.Sample {
	dim := sem + nodes + 2
	s := &encode.Sample{
		Nodes:    tensor.New(nodes, dim),
		Mask:     make([]bool, nodes),
		Children: make([][]bool, nodes),
		Resource: make([]float64, tRes),
		Stats:    make([]float64, tStats),
	}
	n := 3 + rng.Intn(nodes-2) // 3..nodes real nodes
	var nodeSig float64
	for i := 0; i < nodes; i++ {
		s.Children[i] = make([]bool, nodes)
	}
	for i := 0; i < n; i++ {
		s.Mask[i] = true
		row := s.Nodes.Row(i)
		for d := 0; d < sem; d++ {
			row[d] = rng.Float64()
			nodeSig += row[d]
		}
		if i > 0 { // chain structure
			row[sem+i-1] = 1
			s.Children[i][i-1] = true
			s.Nodes.Row(i - 1)[sem+i] = -1
		}
		row[sem+nodes] = rng.Float64()
		row[sem+nodes+1] = rng.Float64()
	}
	for j := range s.Resource {
		s.Resource[j] = rng.Float64()
	}
	for j := range s.Stats {
		s.Stats[j] = rng.Float64()
	}
	mem := s.Resource[4]
	// Cost: node-content effect plus a strong non-monotone resource
	// effect (U-shaped in memory, as in the simulator).
	s.CostSec = 2 + nodeSig + 12*(mem-0.5)*(mem-0.5) + 0.5*s.Stats[0]
	return s
}

func synthDataset(n int, seed int64) []*encode.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*encode.Sample, n)
	for i := range out {
		out[i] = synthSample(rng)
	}
	return out
}

func testConfig() Config {
	cfg := DefaultConfig(tSem, tNodes)
	cfg.Hidden = 16
	cfg.K = 8
	return cfg
}

func quickTrain() TrainConfig {
	tc := DefaultTrainConfig()
	tc.Epochs = 6
	tc.Batch = 16
	tc.LR = 5e-3
	return tc
}

func TestTrainReducesLoss(t *testing.T) {
	samples := synthDataset(200, 1)
	_, res, err := Train(samples, RAAL(), testConfig(), quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.LossCurve[0], res.LossCurve[len(res.LossCurve)-1]
	if last >= first*0.8 {
		t.Fatalf("training barely reduced loss: %v → %v", first, last)
	}
	if res.Duration <= 0 || res.Samples != 200 {
		t.Fatalf("result metadata wrong: %+v", res)
	}
}

func TestPredictShapesAndPositivity(t *testing.T) {
	samples := synthDataset(100, 2)
	m, _, err := Train(samples, RAAL(), testConfig(), quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	preds := predict(m, samples)
	if len(preds) != len(samples) {
		t.Fatalf("prediction count %d", len(preds))
	}
	for _, p := range preds {
		if p < 0 || math.IsNaN(p) {
			t.Fatalf("invalid prediction %v", p)
		}
	}
}

func TestAllVariantsTrain(t *testing.T) {
	samples := synthDataset(80, 3)
	tc := quickTrain()
	tc.Epochs = 2
	for _, v := range AllVariants() {
		if _, _, err := Train(samples, v, testConfig(), tc); err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		// resource-blind twin
		if _, _, err := Train(samples, v.WithoutResources(), testConfig(), tc); err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
	}
}

func TestResourceAwareBeatsBlind(t *testing.T) {
	// The synthetic cost has a strong resource term; the resource-aware
	// model must fit it better than the blind one.
	train := synthDataset(400, 4)
	test := synthDataset(120, 5)
	tc := quickTrain()
	tc.Epochs = 10

	aware, _, err := Train(train, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	blind, _, err := Train(train, RAAL().WithoutResources(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := aware.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := blind.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if ra.MSE >= rb.MSE {
		t.Fatalf("resource-aware MSE %v should beat blind %v", ra.MSE, rb.MSE)
	}
}

func TestEvaluateMetricsQuality(t *testing.T) {
	train := synthDataset(400, 6)
	test := synthDataset(100, 7)
	tc := quickTrain()
	tc.Epochs = 12
	m, _, err := Train(train, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if r.COR < 0.5 {
		t.Fatalf("trained model correlation too low: %v", r)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	samples := synthDataset(60, 8)
	tc := quickTrain()
	tc.Epochs = 2
	m, _, err := Train(samples, RAAC(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Var.Name != "RAAC" {
		t.Fatalf("variant not restored: %s", m2.Var.Name)
	}
	p1 := predict(m, samples[:10])
	p2 := predict(m2, samples[:10])
	for i := range p1 {
		if math.Abs(p1[i]-p2[i]) > 1e-12 {
			t.Fatalf("restored model predicts differently at %d: %v vs %v", i, p1[i], p2[i])
		}
	}
}

// TestSaveLoadFileRoundTrip goes through a real file: unlike a
// bytes.Buffer, an *os.File is not an io.ByteReader, which used to make
// the weight section's gob decoder read from a desynchronized stream.
func TestSaveLoadFileRoundTrip(t *testing.T) {
	samples := synthDataset(40, 8)
	tc := quickTrain()
	tc.Epochs = 2
	m, _, err := Train(samples, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.raal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	m2, err := LoadModel(in)
	if err != nil {
		t.Fatalf("loading model from file: %v", err)
	}
	p1 := predict(m, samples[:10])
	p2 := predict(m2, samples[:10])
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("file-restored model predicts differently at %d: %v vs %v", i, p1[i], p2[i])
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	samples := synthDataset(50, 9)
	tc := quickTrain()
	tc.Epochs = 2
	m1, _, err := Train(samples, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Train(samples, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	p1 := predict(m1, samples[:5])
	p2 := predict(m2, samples[:5])
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("training not deterministic")
		}
	}
}

func TestVariantInputDims(t *testing.T) {
	cfg := testConfig()
	full := NewModel(RAAL(), cfg)
	ne := NewModel(NELSTM(), cfg)
	if full.inputDim() != tSem+tNodes+2 {
		t.Fatalf("RAAL input dim %d", full.inputDim())
	}
	if ne.inputDim() != tSem+2 {
		t.Fatalf("NE-LSTM input dim %d", ne.inputDim())
	}
	blind := NewModel(RAAL().WithoutResources(), cfg)
	if blind.headDim() != cfg.Hidden+cfg.StatsDim {
		t.Fatalf("blind head dim %d", blind.headDim())
	}
	if full.headDim() != 2*cfg.Hidden+cfg.StatsDim {
		t.Fatalf("RAAL head dim %d", full.headDim())
	}
}

func TestTrainErrors(t *testing.T) {
	if _, _, err := Train(nil, RAAL(), testConfig(), quickTrain()); err == nil {
		t.Fatal("empty samples should error")
	}
	bad := quickTrain()
	bad.Epochs = 0
	if _, _, err := Train(synthDataset(5, 1), RAAL(), testConfig(), bad); err == nil {
		t.Fatal("zero epochs should error")
	}
}

func TestProgressCallback(t *testing.T) {
	samples := synthDataset(30, 10)
	tc := quickTrain()
	tc.Epochs = 3
	calls := 0
	tc.Progress = func(epoch int, loss float64) { calls++ }
	if _, _, err := Train(samples, RAAL(), testConfig(), tc); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("progress called %d times, want 3", calls)
	}
}

func TestTransformRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 0.5, 1, 10, 500} {
		if got := invTransform(transform(v)); math.Abs(got-v) > 1e-9 {
			t.Fatalf("transform round trip %v → %v", v, got)
		}
	}
	if invTransform(-5) != 0 {
		t.Fatal("negative predictions should clamp to 0")
	}
}
