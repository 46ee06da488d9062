package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestFitResumeBitEqual: Fit(2k) bit-equals Fit(k) → Save → Load →
// Fit(k), with every batch cut into shards on GOMAXPROCS goroutines.
func TestFitResumeBitEqual(t *testing.T) {
	samples := synthDataset(96, 7)
	const k = 3

	// Reference: one uninterrupted run of 2k epochs.
	ref := NewModel(RAAL(), testConfig())
	tcRef := quickTrain()
	tcRef.Epochs = 2 * k
	tcRef.State = NewTrainState()
	refRes, err := ref.Fit(samples, tcRef)
	if err != nil {
		t.Fatal(err)
	}

	// Continuation: k epochs, round-trip model+state through Save/Load,
	// then k more epochs on the loaded copies.
	first := NewModel(RAAL(), testConfig())
	tc1 := quickTrain()
	tc1.Epochs = k
	tc1.State = NewTrainState()
	res1, err := first.Fit(samples, tc1)
	if err != nil {
		t.Fatal(err)
	}
	var mbuf, sbuf bytes.Buffer
	if err := first.Save(&mbuf); err != nil {
		t.Fatal(err)
	}
	if err := tc1.State.Save(&sbuf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&mbuf)
	if err != nil {
		t.Fatal(err)
	}
	st, err := LoadTrainState(&sbuf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epochs != k {
		t.Fatalf("loaded state epochs = %d, want %d", st.Epochs, k)
	}
	tc2 := quickTrain()
	tc2.Epochs = k
	tc2.State = st
	res2, err := loaded.Fit(samples, tc2)
	if err != nil {
		t.Fatal(err)
	}

	// Weights bit-equal.
	rp, lp := ref.Params(), loaded.Params()
	if len(rp) != len(lp) {
		t.Fatalf("param count %d vs %d", len(rp), len(lp))
	}
	for i := range rp {
		a, b := rp[i].Var.Value.Data, lp[i].Var.Value.Data
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("param %s[%d]: uninterrupted %v != resumed %v", rp[i].Name, j, a[j], b[j])
			}
		}
	}
	// Loss curves bit-equal: the resumed run's curve must be the exact
	// tail of the uninterrupted run's, and the first leg its exact head.
	for e := 0; e < k; e++ {
		if refRes.LossCurve[e] != res1.LossCurve[e] {
			t.Fatalf("epoch %d loss: %v != %v", e, refRes.LossCurve[e], res1.LossCurve[e])
		}
		if refRes.LossCurve[k+e] != res2.LossCurve[e] {
			t.Fatalf("epoch %d loss: %v != %v", k+e, refRes.LossCurve[k+e], res2.LossCurve[e])
		}
	}
	// Optimizer state bit-equal, including the step counter.
	if tcRef.State.Opt.T != tc2.State.Opt.T {
		t.Fatalf("optimizer step counter %d vs %d", tcRef.State.Opt.T, tc2.State.Opt.T)
	}
	if tcRef.State.Epochs != tc2.State.Epochs {
		t.Fatalf("state epochs %d vs %d", tcRef.State.Epochs, tc2.State.Epochs)
	}
	for name, m := range tcRef.State.Opt.M {
		m2, ok := tc2.State.Opt.M[name]
		if !ok {
			t.Fatalf("resumed optimizer state missing moments for %s", name)
		}
		for j := range m {
			if m[j] != m2[j] {
				t.Fatalf("first moment %s[%d]: %v != %v", name, j, m[j], m2[j])
			}
		}
		v, v2 := tcRef.State.Opt.V[name], tc2.State.Opt.V[name]
		for j := range v {
			if v[j] != v2[j] {
				t.Fatalf("second moment %s[%d]: %v != %v", name, j, v[j], v2[j])
			}
		}
	}
}

// TestFitResumeShardedBitEqual: resuming composes with shards spread over
// goroutines. With GOMAXPROCS 4, a model trained k epochs and then k more
// from its TrainState in memory reproduces the uninterrupted 2k-epoch run
// exactly, and so does a resume whose second leg runs its shards on one
// goroutine.
func TestFitResumeShardedBitEqual(t *testing.T) {
	samples := synthDataset(64, 11)
	const k = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	ref := NewModel(RAAL(), testConfig())
	tcRef := quickTrain()
	tcRef.Epochs = 2 * k
	if _, err := ref.Fit(samples, tcRef); err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{4, 1} {
		runtime.GOMAXPROCS(4)
		m := NewModel(RAAL(), testConfig())
		tc1 := quickTrain()
		tc1.Epochs = k
		tc1.State = NewTrainState()
		if _, err := m.Fit(samples, tc1); err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(procs)
		tc2 := quickTrain()
		tc2.Epochs = k
		tc2.State = tc1.State
		if _, err := m.Fit(samples, tc2); err != nil {
			t.Fatal(err)
		}

		rp, mp := ref.Params(), m.Params()
		for i := range rp {
			a, b := rp[i].Var.Value.Data, mp[i].Var.Value.Data
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("second leg at GOMAXPROCS=%d: param %s[%d]: uninterrupted %v != resumed %v", procs, rp[i].Name, j, a[j], b[j])
				}
			}
		}
	}
}

func TestFitResumeConfigMismatch(t *testing.T) {
	samples := synthDataset(32, 3)
	m := NewModel(RAAL(), testConfig())
	tc := quickTrain()
	tc.Epochs = 1
	tc.State = NewTrainState()
	if _, err := m.Fit(samples, tc); err != nil {
		t.Fatal(err)
	}

	// A model with a different hidden size cannot absorb the snapshot.
	cfg := testConfig()
	cfg.Hidden = 24
	other := NewModel(RAAL(), cfg)
	tc2 := quickTrain()
	tc2.Epochs = 1
	tc2.State = tc.State
	_, err := other.Fit(samples, tc2)
	if err == nil {
		t.Fatal("resuming onto a mismatched architecture succeeded")
	}
	if !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("mismatch error not descriptive: %v", err)
	}

	// A second moment is checked like a first one: one naming a parameter
	// the model lacks, or one without its first moment, is rejected too.
	var name string
	for name = range tc.State.Opt.M {
		break
	}
	ghost, orphan := tc.State.Clone(), tc.State.Clone()
	ghost.Opt.V["ghost.W"] = []float64{1}
	delete(orphan.Opt.M, name)
	for _, c := range []struct {
		what string
		st   *TrainState
		want string
	}{
		{"a second moment of no parameter", ghost, "mismatch"},
		{"a second moment without its first", orphan, "first moment"},
	} {
		tc3 := quickTrain()
		tc3.Epochs = 1
		tc3.State = c.st
		_, err := NewModel(RAAL(), testConfig()).Fit(samples, tc3)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("resuming from %s: err = %v, want one naming %q", c.what, err, c.want)
		}
	}
}

func TestTrainStateRoundTripAndCorruption(t *testing.T) {
	st := NewTrainState()
	st.Epochs = 5
	st.Opt.T = 40
	st.Opt.M["w"] = []float64{1, 2, 3}
	st.Opt.V["w"] = []float64{4, 5, 6}

	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)

	got, err := LoadTrainState(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epochs != 5 || got.Opt.T != 40 || got.Opt.M["w"][2] != 3 || got.Opt.V["w"][0] != 4 {
		t.Fatalf("round trip mangled state: %+v", got)
	}

	// Clone is deep: mutating the clone leaves the original alone.
	c := got.Clone()
	c.Opt.M["w"][0] = 99
	c.Epochs = 1
	if got.Opt.M["w"][0] != 1 || got.Epochs != 5 {
		t.Fatal("Clone shares storage with the original")
	}

	// Truncations at every prefix fail with an error, never a panic.
	for cut := 0; cut < len(full); cut++ {
		if _, err := LoadTrainState(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// A model file is not a train state.
	var mbuf bytes.Buffer
	if err := NewModel(RAAL(), testConfig()).Save(&mbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrainState(&mbuf); err == nil {
		t.Fatal("model file accepted as train state")
	}
}

func TestModelClone(t *testing.T) {
	samples := synthDataset(48, 5)
	m, _, err := Train(samples, RAAL(), testConfig(), quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()

	// Clone predicts identically...
	want := predict(m, samples[:8])
	got := predict(c, samples[:8])
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("clone prediction %d: %v != %v", i, want[i], got[i])
		}
	}
	// ...and training the clone never perturbs the original.
	before := predict(m, samples[:8])
	tc := quickTrain()
	tc.Epochs = 2
	if _, err := c.Fit(samples, tc); err != nil {
		t.Fatal(err)
	}
	after := predict(m, samples[:8])
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("training the clone changed the original: %v != %v", before[i], after[i])
		}
	}
	changed := false
	now := predict(c, samples[:8])
	for i := range now {
		if now[i] != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("training the clone changed nothing")
	}
}
