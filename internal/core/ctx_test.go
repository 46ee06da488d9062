package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestPredictCtxMatchesPredictWith: with a live context, PredictCtx and
// predictCtx on every schedule must be bit-identical to the serial
// schedule (the former PredictWith) — the cancellation checks are pure
// control flow.
func TestPredictCtxMatchesPredictWith(t *testing.T) {
	samples := synthDataset(150, 31)
	tc := quickTrain()
	tc.Epochs = 2
	m, _, err := Train(samples, RAAL(), testConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	want := predictOn(m, samples, schedOpts{workers: 1, chunk: 64})
	got, err := m.PredictCtx(context.Background(), samples, PredictOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("PredictCtx diverged from the serial schedule: %v vs %v", got, want)
	}
	for _, opt := range []schedOpts{
		{},
		{workers: 1, chunk: 16},
		{workers: 4, chunk: 7},
	} {
		got, err := m.predictCtx(context.Background(), samples, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("opts %+v: prediction %d differs: %v vs %v", opt, i, got[i], want[i])
			}
		}
	}
}

// TestPredictCtxCancelled: a pre-cancelled context must abort before any
// forward pass, serially and in parallel, with context.Canceled.
func TestPredictCtxCancelled(t *testing.T) {
	samples := synthDataset(200, 32)
	m := NewModel(RAAL(), testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opt := range []schedOpts{
		{workers: 1, chunk: 8},
		{workers: 4, chunk: 8},
	} {
		start := time.Now()
		preds, err := m.predictCtx(ctx, samples, opt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("opts %+v: want context.Canceled, got %v", opt, err)
		}
		if preds != nil {
			t.Fatalf("opts %+v: cancelled predict should return nil predictions", opt)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("opts %+v: cancelled predict took %v", opt, d)
		}
	}
}

// TestPredictCtxExpiredDeadline: an already-expired deadline behaves like
// cancellation but reports context.DeadlineExceeded.
func TestPredictCtxExpiredDeadline(t *testing.T) {
	samples := synthDataset(64, 33)
	m := NewModel(RAAL(), testConfig())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := m.predictCtx(ctx, samples, schedOpts{workers: 2}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestPredictCtxMidBatchCancellation cancels while chunks are in flight:
// the scorer must stop claiming work and return the context error rather
// than finishing the whole batch.
func TestPredictCtxMidBatchCancellation(t *testing.T) {
	samples := synthDataset(600, 34)
	m := NewModel(RAAL(), testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Cancel as soon as scoring has plausibly begun; even if the
		// batch wins the race the call must still succeed.
		time.Sleep(time.Millisecond)
		cancel()
	}()
	preds, err := m.predictCtx(ctx, samples, schedOpts{workers: 2, chunk: 4})
	<-done
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error: %v", err)
	}
	if err == nil && len(preds) != len(samples) {
		t.Fatalf("uncancelled call returned %d predictions", len(preds))
	}
}

// TestModelFileHeaderRejections exercises every section boundary of a
// bare-network file: truncations, bad magic, and version skew must each
// produce a descriptive error — and never a panic.
func TestModelFileHeaderRejections(t *testing.T) {
	m := NewModel(RAAL(), testConfig())
	var full bytes.Buffer
	if err := m.Save(&full); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()

	headerLen := len(ModelMagic) + 1
	var snapBuf bytes.Buffer
	if err := gob.NewEncoder(&snapBuf).Encode(modelSnapshot{Var: m.Var, Cfg: m.Cfg}); err != nil {
		t.Fatal(err)
	}
	weightsAt := headerLen + snapBuf.Len()
	if weightsAt >= len(raw) {
		t.Fatalf("section math wrong: weights boundary %d beyond file %d", weightsAt, len(raw))
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"mid-magic", raw[:3], "truncated"},
		{"header only", raw[:headerLen], "model header"},
		{"mid-snapshot", raw[:headerLen+snapBuf.Len()/2], "model header"},
		{"snapshot boundary (weights missing)", raw[:weightsAt], "weights"},
		{"mid-weights", raw[:weightsAt+(len(raw)-weightsAt)/2], "weights"},
		{"foreign magic", append([]byte("NOTRAAL"), raw[len(ModelMagic):]...), "bad magic"},
		{"future version", flipVersion(raw, len(ModelMagic)), "version mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadModel panicked: %v", r)
				}
			}()
			_, err := LoadModel(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt file loaded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q should mention %q", err, tc.want)
			}
		})
	}
}

// TestModelFileCorruptConfigRejected: a gob-valid header whose dimensions
// are garbage must be rejected by validation, not die inside NewModel.
func TestModelFileCorruptConfigRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, ModelMagic, ModelVersion); err != nil {
		t.Fatal(err)
	}
	bad := modelSnapshot{Var: RAAL(), Cfg: Config{SemDim: -4, MaxNodes: 6, ResDim: 8, StatsDim: 6, Hidden: 16, K: 8}}
	if err := gob.NewEncoder(&buf).Encode(bad); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("LoadModel panicked on corrupt config: %v", r)
		}
	}()
	_, err := LoadModel(&buf)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want dimension rejection, got %v", err)
	}
}

func flipVersion(raw []byte, at int) []byte {
	out := append([]byte(nil), raw...)
	out[at] = 99
	return out
}

// TestParamCountMatchesNewModel keeps the bound's arithmetic in step with
// what NewModel builds, for all 8 variants at the default and the test
// configurations, and loads each such model back under the bound.
func TestParamCountMatchesNewModel(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(16, 42), testConfig()} {
		for _, v := range goldenVariants() {
			m := NewModel(v, cfg)
			var n int64
			for _, p := range m.Params() {
				n += int64(len(p.Value().Data))
			}
			if got := cfg.paramCount(v); got != n {
				t.Errorf("%s: paramCount %d, NewModel allocates %d", v.Name, got, n)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadModel(&buf); err != nil {
				t.Errorf("%s at %+v: %v", v.Name, cfg, err)
			}
		}
	}
}

// TestModelFileOversizedConfigRefused is the regression for a 276-byte
// model file, a header and a configuration with no weights after them,
// that asks for Hidden 2^16 with every other dimension 1: each dimension
// is in range, but the recurrent matrix alone is 2^34 elements. LoadModel
// used to hand that to NewModel, and the process died with a fatal
// out-of-memory error that no recover catches. It must be refused, typed,
// before anything is allocated.
func TestModelFileOversizedConfigRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, ModelMagic, ModelVersion); err != nil {
		t.Fatal(err)
	}
	huge := modelSnapshot{Var: RAAL(), Cfg: Config{SemDim: 1, MaxNodes: 1, ResDim: 1, StatsDim: 1, Hidden: 1 << 16, K: 1}}
	if err := gob.NewEncoder(&buf).Encode(huge); err != nil {
		t.Fatal(err)
	}
	_, err := LoadModel(&buf)
	var size *ModelSizeError
	if !errors.As(err, &size) {
		t.Fatalf("want a *ModelSizeError, got %v", err)
	}
	if size.Params <= 1<<34 || size.Max != maxModelParams {
		t.Fatalf("refusal reports %d weights against a bound of %d", size.Params, size.Max)
	}
}
