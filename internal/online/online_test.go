package online

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"raal/internal/core"
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

// synthSample fabricates an encoded plan whose cost depends on node
// content and resources; scale multiplies the whole cost surface, which
// is how the tests inject a workload shift (the "same" queries suddenly
// run scale× slower than the champion learned).
func synthSample(rng *rand.Rand, scale float64) *encode.Sample {
	dim := tSem + tNodes + 2
	s := &encode.Sample{
		Nodes:    tensor.New(tNodes, dim),
		Mask:     make([]bool, tNodes),
		Children: make([][]bool, tNodes),
		Resource: make([]float64, tRes),
		Stats:    make([]float64, tStats),
	}
	n := 3 + rng.Intn(tNodes-2)
	var nodeSig float64
	for i := 0; i < tNodes; i++ {
		s.Children[i] = make([]bool, tNodes)
	}
	for i := 0; i < n; i++ {
		s.Mask[i] = true
		row := s.Nodes.Row(i)
		for d := 0; d < tSem; d++ {
			row[d] = rng.Float64()
			nodeSig += row[d]
		}
		if i > 0 {
			row[tSem+i-1] = 1
			s.Children[i][i-1] = true
			s.Nodes.Row(i - 1)[tSem+i] = -1
		}
		row[tSem+tNodes] = rng.Float64()
		row[tSem+tNodes+1] = rng.Float64()
	}
	for j := range s.Resource {
		s.Resource[j] = rng.Float64()
	}
	for j := range s.Stats {
		s.Stats[j] = rng.Float64()
	}
	mem := s.Resource[4]
	s.CostSec = scale * (2 + nodeSig + 12*(mem-0.5)*(mem-0.5) + 0.5*s.Stats[0])
	return s
}

// predict scores samples with m on a background context.
func predict(m *core.Model, samples []*encode.Sample) []float64 {
	out, _ := m.PredictCtx(context.Background(), samples, core.PredictOpts{})
	return out
}

func synthDataset(n int, seed int64, scale float64) []*encode.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*encode.Sample, n)
	for i := range out {
		out[i] = synthSample(rng, scale)
	}
	return out
}

func testModelConfig() core.Config {
	cfg := core.DefaultConfig(tSem, tNodes)
	cfg.Hidden = 16
	cfg.K = 8
	return cfg
}

// trainChampion fits a small model on the unshifted distribution and
// returns it with its resumable state.
func trainChampion(t *testing.T, epochs int) (*core.Model, *core.TrainState) {
	t.Helper()
	samples := synthDataset(200, 1, 1)
	tc := core.DefaultTrainConfig()
	tc.Epochs = epochs
	tc.LR = 5e-3
	tc.State = core.NewTrainState()
	m := core.NewModel(core.RAAL(), testModelConfig())
	if _, err := m.Fit(samples, tc); err != nil {
		t.Fatal(err)
	}
	return m, tc.State
}

func meanQ(m *core.Model, samples []*encode.Sample) float64 {
	preds := predict(m, samples)
	var sum float64
	for i, s := range samples {
		sum += QError(preds[i], s.CostSec)
	}
	return sum / float64(len(samples))
}

func TestQError(t *testing.T) {
	cases := []struct{ pred, actual, want float64 }{
		{2, 1, 2}, {1, 2, 2}, {5, 5, 1},
	}
	for _, c := range cases {
		if got := QError(c.pred, c.actual); got != c.want {
			t.Fatalf("QError(%v,%v) = %v, want %v", c.pred, c.actual, got, c.want)
		}
	}
	for _, bad := range [][2]float64{{0, 1}, {1, 0}, {-1, 2}, {math.NaN(), 1}, {math.Inf(1), 1}} {
		if got := QError(bad[0], bad[1]); !math.IsInf(got, 1) {
			t.Fatalf("QError(%v,%v) = %v, want +Inf", bad[0], bad[1], got)
		}
	}
}

func TestReservoirDeterministicAndBounded(t *testing.T) {
	mk := func() []int {
		r := NewReservoir(32, 7)
		stream := synthDataset(500, 3, 1)
		pos := map[*encode.Sample]int{}
		for i, s := range stream {
			pos[s] = i
			r.Add(s)
		}
		if r.Len() != 32 || r.Seen() != 500 {
			t.Fatalf("len=%d seen=%d", r.Len(), r.Seen())
		}
		kept := make([]int, 0, 32)
		for _, s := range r.Snapshot() {
			kept = append(kept, pos[s])
		}
		return kept
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("reservoir is not deterministic for a fixed stream")
		}
	}
	// A reservoir retains a spread of the stream, not just a prefix: at
	// least one resident must come from the last half.
	tail := false
	stream := synthDataset(500, 3, 1)
	pos := map[*encode.Sample]int{}
	for i, s := range stream {
		pos[s] = i
	}
	r := NewReservoir(32, 7)
	for _, s := range stream {
		r.Add(s)
	}
	for _, s := range r.Snapshot() {
		if pos[s] >= 250 {
			tail = true
		}
	}
	if !tail {
		t.Fatal("reservoir kept only the stream prefix")
	}
}

func TestDriftDetector(t *testing.T) {
	d := NewDriftDetector(10, 0.9, 2.0)
	for i := 0; i < 9; i++ {
		d.Observe(5) // terrible, but the window is not full yet
		if d.Drifted() {
			t.Fatal("partial window tripped the detector")
		}
	}
	d.Observe(5)
	if !d.Drifted() {
		t.Fatal("full window of q=5 did not trip threshold 2")
	}
	d.Reset()
	if d.Drifted() {
		t.Fatal("Reset did not clear the window")
	}
	// A window that is mostly good with a small bad tail must not trip
	// the 0.9 quantile... until the tail crosses 10% of the window.
	for i := 0; i < 10; i++ {
		if i == 0 {
			d.Observe(50)
		} else {
			d.Observe(1.01)
		}
	}
	if q := d.Quantile(); q != 1.01 {
		t.Fatalf("0.9-quantile with one outlier in ten = %v, want 1.01", q)
	}
	if d.Drifted() {
		t.Fatal("single outlier tripped the quantile detector")
	}
}

func TestRegistryRoundTripAndIntegrity(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, st := trainChampion(t, 2)
	if err := reg.Save(1, m, st); err != nil {
		t.Fatal(err)
	}
	if err := reg.Save(2, m, st); err != nil {
		t.Fatal(err)
	}
	vs, err := reg.List()
	if err != nil || len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Fatalf("List = %v, %v", vs, err)
	}
	lm, lst, err := reg.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if lst.Epochs != st.Epochs {
		t.Fatalf("state epochs %d != %d", lst.Epochs, st.Epochs)
	}
	probe := synthDataset(4, 9, 1)
	want, got := predict(m, probe), predict(lm, probe)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("loaded model predicts differently: %v != %v", want[i], got[i])
		}
	}

	// Flip one payload byte: the checksum must catch it.
	path := filepath.Join(dir, "snap-00002.raal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Load(2); err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Fatalf("corrupt snapshot loaded without an integrity error: %v", err)
	}

	// A bare model file is not a snapshot.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-00003.raal"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Load(3); err == nil {
		t.Fatal("model file accepted as snapshot")
	}

	// Manifest round trip; a fresh registry reports a zero manifest.
	if err := reg.WriteManifest(Manifest{Champion: 1}); err != nil {
		t.Fatal(err)
	}
	man, err := reg.ReadManifest()
	if err != nil || man.Champion != 1 {
		t.Fatalf("manifest = %+v, %v", man, err)
	}
	fresh, _ := OpenRegistry(t.TempDir())
	if man, err := fresh.ReadManifest(); err != nil || man.Champion != 0 {
		t.Fatalf("fresh manifest = %+v, %v", man, err)
	}
}

// TestOnlineDriftPromotion is the deterministic drift drill in miniature:
// serve the champion on a shifted workload, watch rolling q-error trip
// the detector, and require the retrained challenger to win the shadow
// comparison and be promoted — after which served q-error recovers.
func TestOnlineDriftPromotion(t *testing.T) {
	champ, st := trainChampion(t, 40)
	cfg := Config{
		ReplayCap:      256,
		Seed:           5,
		DriftWindow:    32,
		DriftThreshold: 1.8,
		MinRetrain:     96,
		ShadowMin:      24,
		Train:          core.TrainConfig{Epochs: 40, Batch: 16, LR: 5e-3, Seed: 5},
	}
	mgr, err := NewManager(champ, st, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: the trained distribution. Feedback matches predictions;
	// nothing should trigger.
	preShift := synthDataset(64, 21, 1)
	for _, s := range preShift {
		v := mgr.Champion()
		pred := predict(v.Model, []*encode.Sample{s})[0]
		mgr.Observe(s, pred, s.CostSec)
	}
	if got := mgr.Status(); got.Champion != 1 || got.Shadow != nil {
		t.Fatalf("stable workload perturbed the loop: %+v", got)
	}
	if q := meanQ(mgr.Champion().Model, preShift); q > 1.8 {
		t.Fatalf("champion never learned the base distribution: mean q-error %v", q)
	}

	// Phase 2: workload shift — the same plans now cost 3×. Stream
	// feedback until the loop has retrained, shadow-scored, and settled.
	shifted := synthDataset(600, 22, 3)
	promoted := -1
	for i, s := range shifted {
		v := mgr.Champion()
		pred := predict(v.Model, []*encode.Sample{s})[0]
		mgr.Observe(s, pred, s.CostSec)
		if mgr.Champion().Num != 1 && promoted < 0 {
			promoted = i
		}
	}
	st2 := mgr.Status()
	if promoted < 0 {
		t.Fatalf("workload shift never promoted a challenger: %+v", st2)
	}
	if st2.Champion == 1 {
		t.Fatalf("champion rolled back unexpectedly: %+v", st2)
	}
	if len(st2.History) < 2 {
		t.Fatalf("promotion left no lineage: %+v", st2)
	}

	// Phase 3: recovery. The promoted model must price the shifted
	// workload far better than the stale champion did.
	holdout := synthDataset(64, 23, 3)
	staleQ := meanQ(champ, holdout)
	freshQ := meanQ(mgr.Champion().Model, holdout)
	if freshQ >= staleQ {
		t.Fatalf("promotion did not improve shifted q-error: stale %v, fresh %v", staleQ, freshQ)
	}
	if freshQ > 1.8 {
		t.Fatalf("promoted model still drifted: mean q-error %v", freshQ)
	}
}

// TestOnlineDeterministicLoop runs the same feedback sequence through two
// managers and requires identical promotion behavior and bit-identical
// promoted weights — the loop inherits Fit's reproducibility.
func TestOnlineDeterministicLoop(t *testing.T) {
	run := func() (*Manager, []float64) {
		champ, st := trainChampion(t, 30)
		cfg := Config{
			ReplayCap: 256, Seed: 5, DriftWindow: 32, DriftThreshold: 1.8,
			MinRetrain: 96, ShadowMin: 24,
			Train: core.TrainConfig{Epochs: 20, Batch: 16, LR: 5e-3, Seed: 5},
		}
		mgr, err := NewManager(champ, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range synthDataset(400, 31, 3) {
			v := mgr.Champion()
			pred := predict(v.Model, []*encode.Sample{s})[0]
			mgr.Observe(s, pred, s.CostSec)
		}
		return mgr, predict(mgr.Champion().Model, synthDataset(8, 33, 3))
	}
	m1, p1 := run()
	m2, p2 := run()
	if m1.Champion().Num != m2.Champion().Num {
		t.Fatalf("championship diverged: v%d vs v%d", m1.Champion().Num, m2.Champion().Num)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("promoted models diverged at probe %d: %v != %v", i, p1[i], p2[i])
		}
	}
}

func TestOnlinePinBlocksAutomation(t *testing.T) {
	champ, st := trainChampion(t, 20)
	cfg := Config{
		ReplayCap: 256, Seed: 5, DriftWindow: 16, DriftThreshold: 1.5,
		MinRetrain: 32, ShadowMin: 8,
		Train: core.TrainConfig{Epochs: 2, Batch: 16, LR: 5e-3, Seed: 5},
	}
	mgr, err := NewManager(champ, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Pin(true)
	for _, s := range synthDataset(200, 41, 4) {
		v := mgr.Champion()
		pred := predict(v.Model, []*encode.Sample{s})[0]
		mgr.Observe(s, pred, s.CostSec)
	}
	stat := mgr.Status()
	if stat.Champion != 1 || stat.Shadow != nil {
		t.Fatalf("pinned loop still automated: %+v", stat)
	}
	if !stat.Drifted {
		t.Fatal("drift window should still be reporting the shift")
	}
}

func TestManagerRegistryResume(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	champ, st := trainChampion(t, 10)
	mgr, err := NewManager(champ, st, Config{Registry: reg, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Persist a second generation and promote it.
	m2, st2 := trainChampion(t, 20)
	if err := reg.Save(2, m2, st2); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Promote(2); err != nil {
		t.Fatal(err)
	}
	probe := synthDataset(4, 51, 1)
	want := predict(mgr.Champion().Model, probe)

	// A new manager over the same registry resumes generation 2, not the
	// bootstrap model it was handed.
	other, _ := trainChampion(t, 2)
	mgr2, err := NewManager(other, nil, Config{Registry: reg, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if mgr2.Champion().Num != 2 {
		t.Fatalf("resumed champion v%d, want v2", mgr2.Champion().Num)
	}
	got := predict(mgr2.Champion().Model, probe)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("resumed champion predicts differently: %v != %v", want[i], got[i])
		}
	}
	// Rollback returns to the bootstrap generation.
	if err := mgr.Rollback(); err != nil {
		t.Fatal(err)
	}
	if mgr.Champion().Num != 1 {
		t.Fatalf("rollback landed on v%d, want v1", mgr.Champion().Num)
	}
}

// TestManagerRefusesMisfitSnapshots: a registry generation of another
// variant, or one reading another feature layout than the bootstrap, is
// refused when a restarted manager resumes it and when an operator
// promotes it — the server's encoder could not feed it without a panic.
func TestManagerRefusesMisfitSnapshots(t *testing.T) {
	wide := testModelConfig()
	wide.SemDim += 3
	for name, misfit := range map[string]*core.Model{
		"variant":      core.NewModel(core.RAAC(), testModelConfig()),
		"semantic dim": core.NewModel(core.RAAL(), wide),
	} {
		t.Run(name, func(t *testing.T) {
			reg, err := OpenRegistry(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			champ, st := trainChampion(t, 2)
			mgr, err := NewManager(champ, st, Config{Registry: reg, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.Save(2, misfit, core.NewTrainState()); err != nil {
				t.Fatal(err)
			}
			if err := mgr.Promote(2); err == nil {
				t.Fatal("Promote installed a snapshot that does not fit the bootstrap")
			}
			if mgr.Champion().Num != 1 {
				t.Fatalf("champion is v%d after a refused promotion, want v1", mgr.Champion().Num)
			}
			if err := reg.WriteManifest(Manifest{Champion: 2}); err != nil {
				t.Fatal(err)
			}
			if _, err := NewManager(champ, st, Config{Registry: reg, Seed: 5}); err == nil {
				t.Fatal("NewManager resumed a snapshot that does not fit the bootstrap")
			}
		})
	}
}

// TestOnlineObserveDropsMemo: the labeled copy Observe keeps (replay
// buffer, shadow scoring, retraining) must not share the served sample's
// prefix memo slot, or any model scoring the copy would evict the prefix
// the champion parked on the served plan encoding.
func TestOnlineObserveDropsMemo(t *testing.T) {
	champ, st := trainChampion(t, 6)
	mgr, err := NewManager(champ, st, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := synthDataset(1, 9, 1)[0]
	s.Memo = new(encode.PlanMemo) // as an encode-cache entry carries one
	pred := predict(mgr.Champion().Model, []*encode.Sample{s})[0]
	parked := s.Memo.Load()
	if parked == nil {
		t.Fatal("the champion parked no prefix on the served sample")
	}
	mgr.Observe(s, pred, s.CostSec)
	replay := mgr.buf.Snapshot()
	if len(replay) != 1 || replay[0].Memo != nil {
		t.Fatalf("the replayed copy still shares the served sample's memo slot")
	}
	predict(champ.Clone(), replay) // a challenger scoring the copy
	if s.Memo.Load() != parked {
		t.Fatal("scoring the replayed copy replaced the champion's parked prefix")
	}
}
