package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"raal/internal/encode"

	"raal/internal/telemetry"
)

// TestPredictCtxSpanStageBreakdown is the span acceptance check: a span
// on the context receives the per-stage forward-pass decomposition, every
// stage duration is non-negative, and — on the serial schedule, where no
// two stages overlap — the stage durations sum to at most the span's
// total wall time.
func TestPredictCtxSpanStageBreakdown(t *testing.T) {
	samples := synthDataset(32, 7)
	m := NewModel(RAAL(), testConfig())

	sp := telemetry.StartSpan("predict")
	preds, err := m.predictCtx(telemetry.WithSpan(context.Background(), sp), samples, schedOpts{workers: 1})
	sp.End()
	if err != nil || len(preds) != len(samples) {
		t.Fatalf("got %d predictions (err %v), want %d", len(preds), err, len(samples))
	}

	stages := sp.Stages()
	got := make(map[string]bool, len(stages))
	var sum float64
	for _, st := range stages {
		if st.Dur < 0 {
			t.Errorf("stage %q has negative duration %v", st.Name, st.Dur)
		}
		got[st.Name] = true
		sum += st.Dur.Seconds()
	}
	for _, want := range []string{"embed", "lstm", "attention", "dense", "decode"} {
		if !got[want] {
			t.Errorf("span is missing stage %q (have %v)", want, stages)
		}
	}
	if total := sp.Total().Seconds(); sum > total {
		t.Errorf("stage durations sum to %.6fs > span total %.6fs", sum, total)
	}
	if sp.Total() <= 0 {
		t.Errorf("span total = %v, want > 0", sp.Total())
	}
}

// TestPredictCtxTracedMatchesUntraced confirms tracing is observation
// only: on mixed-length samples, which the default schedule splits into
// per-length chunks fanned out over the workers, a span on the context
// changes no bit of any prediction, for the LSTM and the conv branch.
func TestPredictCtxTracedMatchesUntraced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]*encode.Sample, 40)
	for i := range samples {
		samples[i] = maskedSample(rng)
	}
	for _, v := range []Variant{RAAL(), RAAC()} {
		m := NewModel(v, testConfig())
		want := predict(m, samples)
		sp := telemetry.StartSpan("predict")
		got, err := m.PredictCtx(telemetry.WithSpan(context.Background(), sp), samples, PredictOpts{})
		sp.End()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: traced predictions %v != untraced %v", v.Name, got, want)
		}
		plan := "lstm"
		if v.CNN {
			plan = "conv"
		}
		if sp.Dur("embed") <= 0 || sp.Dur(plan) <= 0 {
			t.Errorf("%s: span is missing the embed or %s stage: %v", v.Name, plan, sp)
		}
	}
}

// TestInstrumentationObservesPredictAndFit wires a registry through both
// inference and training and checks the metric families move.
func TestInstrumentationObservesPredictAndFit(t *testing.T) {
	reg := telemetry.NewRegistry()
	ins := NewInstrumentation(reg)

	samples := synthDataset(48, 5)
	m := NewModel(RAAL(), testConfig())
	m.Instrument(ins)
	predict(m, samples)
	if got := ins.PredictRows.Value(); got != 48 {
		t.Errorf("predict rows counter = %d, want 48", got)
	}
	if n := ins.PredictLatency.Count(); n != 1 {
		t.Errorf("predict latency observations = %d, want 1", n)
	}

	// A call whose samples are built on the scoring workers (SelectPlanCtx
	// and the raal batch APIs) is one observation as well, and the
	// occupancy counts the length hints the scheduler grouped by.
	c := newScoreCase(5, 4, 12)
	want := map[string]uint64{}
	for _, band := range bucketBands {
		want[band] = ins.BucketOccupancy.With(band).Value()
	}
	for _, h := range c.hints {
		want[bucketBand(max(h, 1))]++
	}
	if _, err := m.ScoreCtx(context.Background(), c.hints, func(i int) *encode.Sample { return c.samples[i] }); err != nil {
		t.Fatal(err)
	}
	if got := ins.PredictRows.Value(); got != 48+12 {
		t.Errorf("predict rows counter = %d after a 12-row ScoreCtx, want 60", got)
	}
	if n := ins.PredictLatency.Count(); n != 2 {
		t.Errorf("predict latency observations = %d after one ScoreCtx, want 2", n)
	}
	for _, band := range bucketBands {
		if got := ins.BucketOccupancy.With(band).Value(); got != want[band] {
			t.Errorf("band %s occupancy = %d, want %d", band, got, want[band])
		}
	}

	tc := quickTrain()
	tc.Epochs = 2
	tc.Instr = ins
	if _, err := m.Fit(samples, tc); err != nil {
		t.Fatal(err)
	}
	if got := ins.TrainEpochs.Value(); got != 2 {
		t.Errorf("train epochs counter = %d, want 2", got)
	}
	if loss := ins.TrainLoss.Value(); loss <= 0 {
		t.Errorf("train loss gauge = %v, want > 0", loss)
	}
}
