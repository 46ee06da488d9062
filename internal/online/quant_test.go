package online

import (
	"testing"

	"raal/internal/core"
	"raal/internal/encode"
	"raal/internal/telemetry"
)

// TestQuantizedChampionLifecycle pins the online quantization contract:
// a reduced-precision loop quantizes the bootstrap champion behind the
// accuracy gate, serves at that precision, re-quantizes the promoted
// challenger from its float64 weights, and falls back to float64 (with
// raal_quant_gate_failures_total bumped) when the gate cannot admit a
// snapshot.
func TestQuantizedChampionLifecycle(t *testing.T) {
	champ, st := trainChampion(t, 40)
	gate := synthDataset(48, 31, 1)
	cfg := Config{
		ReplayCap:      256,
		Seed:           5,
		DriftWindow:    32,
		DriftThreshold: 1.8,
		MinRetrain:     96,
		ShadowMin:      24,
		Train:          core.TrainConfig{Epochs: 40, Batch: 16, LR: 5e-3, Seed: 5},
		Precision:      core.PrecisionF32,
		GateSamples:    gate,
		// The lifecycle is what this test pins, not the bound's
		// tightness (the core gate tests own that) — keep the gate
		// permissive so a borderline snapshot cannot flake the drill.
		MaxQDelta: 0.2,
		Metrics:   NewMetrics(telemetry.NewRegistry()),
	}
	mgr, err := NewManager(champ, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := mgr.Champion()
	if v.Q == nil || v.Q.Precision() != core.PrecisionF32 {
		t.Fatalf("bootstrap champion was not quantized: %+v (last error %q)", v.Q, mgr.Status().LastError)
	}
	if got := mgr.Status().Precision; got != "f32" {
		t.Fatalf("Status.Precision = %q, want f32", got)
	}

	// Serve at the champion's precision through a workload shift until a
	// challenger is promoted; the new generation must carry a freshly
	// gated snapshot of its own.
	shifted := synthDataset(600, 22, 3)
	for _, s := range shifted {
		v := mgr.Champion()
		pred := predict(v.Q, []*encode.Sample{s})[0]
		mgr.Observe(s, pred, s.CostSec)
	}
	v2 := mgr.Champion()
	if v2.Num == 1 {
		t.Fatalf("workload shift never promoted a challenger: %+v", mgr.Status())
	}
	if v2.Q == nil || v2.Q.Precision() != core.PrecisionF32 {
		t.Fatalf("promotion did not re-quantize generation %d (last error %q)", v2.Num, mgr.Status().LastError)
	}
	if v2.Q == v.Q {
		t.Fatal("promoted generation reuses the old champion's snapshot")
	}
}

// TestQuantizedGateFallback pins the refusal path: with no gate samples
// and an empty replay buffer the bootstrap quantization cannot be
// verified, so the champion must serve float64, record the refusal, and
// bump the gate-failure counter.
func TestQuantizedGateFallback(t *testing.T) {
	champ, st := trainChampion(t, 40)
	met := NewMetrics(telemetry.NewRegistry())
	mgr, err := NewManager(champ, st, Config{
		Seed:      5,
		Precision: core.PrecisionF32,
		Metrics:   met,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := mgr.Champion(); v.Q != nil {
		t.Fatal("an unverifiable quantization was installed")
	}
	status := mgr.Status()
	if status.Precision != "f64" {
		t.Fatalf("Status.Precision = %q, want the f64 fallback", status.Precision)
	}
	if status.LastError == "" {
		t.Fatal("gate refusal left no trace in LastError")
	}
	if got := met.QuantGateFailures.Value(); got != 1 {
		t.Fatalf("raal_quant_gate_failures_total = %v, want 1", got)
	}
}
