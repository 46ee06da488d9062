package raal

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"raal/internal/core"
	"raal/internal/metrics"
)

// TestLoadCostModelCorruptFiles truncates a saved cost model at every
// section boundary — magic, encoder, model header, weights — plus
// mid-section and foreign-file cases. Every one must come back as a
// descriptive error, never a panic, never an opaque gob message alone.
func TestLoadCostModelCorruptFiles(t *testing.T) {
	_, _, cm := sharedSystem(t)
	var full bytes.Buffer
	if err := cm.Save(&full); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()

	// Reconstruct the section boundaries by re-saving the parts the
	// same way Save does.
	headerLen := len(costModelMagic) + 1
	var encBuf bytes.Buffer
	if err := cm.enc.Save(&encBuf); err != nil {
		t.Fatal(err)
	}
	modelAt := headerLen + encBuf.Len() // start of the core.Model section
	if modelAt >= len(raw) {
		t.Fatalf("section math wrong: model boundary %d beyond file %d", modelAt, len(raw))
	}
	netHeaderEnd := modelAt + len(core.ModelMagic) + 1

	cases := []struct {
		name string
		data []byte
		want string // substring the error must carry
	}{
		{"empty file", nil, "truncated"},
		{"mid-magic", raw[:3], "truncated"},
		{"magic only", raw[:headerLen], "encoder"},
		{"mid-encoder", raw[:headerLen+encBuf.Len()/2], "encoder"},
		{"encoder boundary (network missing)", raw[:modelAt], "truncated"},
		{"network magic only", raw[:netHeaderEnd], "model header"},
		{"mid-network", raw[:modelAt+(len(raw)-modelAt)/2], ""},
		{"truncated tail", raw[:len(raw)-7], "weights"},
		{"foreign file", []byte("GIF89a this is definitely not a model"), "bad magic"},
		{"v0 file (no header)", raw[headerLen:], "bad magic"},
		{"future version", flipByte(raw, len(costModelMagic)), "version mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadCostModel panicked: %v", r)
				}
			}()
			_, err := LoadCostModel(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt file loaded without error")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q should mention %q", err, tc.want)
			}
		})
	}

	// The untouched bytes must still load — the boundary math above is
	// only trustworthy if the full file round-trips.
	if _, err := LoadCostModel(bytes.NewReader(raw)); err != nil {
		t.Fatalf("full file failed to load: %v", err)
	}
}

func flipByte(raw []byte, at int) []byte {
	out := append([]byte(nil), raw...)
	out[at] ^= 0x5f
	return out
}

func TestEstimateCtx(t *testing.T) {
	sys, _, cm := sharedSystem(t)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 100`)
	if err != nil {
		t.Fatal(err)
	}
	res := DefaultResources()

	got, err := cm.EstimateCtx(context.Background(), plans[0], res)
	if err != nil {
		t.Fatal(err)
	}
	if want := cm.Estimate(plans[0], res); got != want {
		t.Fatalf("EstimateCtx %v != Estimate %v", got, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cm.EstimateCtx(ctx, plans[0], res); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, _, err := cm.SelectPlanCtx(ctx, plans, res); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectPlanCtx: want context.Canceled, got %v", err)
	}
	if _, _, err := cm.RecommendResourcesCtx(ctx, plans[0], DefaultResourceGrid()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RecommendResourcesCtx: want context.Canceled, got %v", err)
	}
}

// TestSelectPlanCtxMatchesSelectPlan: plan selection is the argmin of
// the batch estimate, bit for bit.
func TestSelectPlanCtxMatchesSelectPlan(t *testing.T) {
	sys, _, cm := sharedSystem(t)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	res := DefaultResources()
	costs, err := cm.EstimateBatchCtx(context.Background(), plans, res, PredictOpts{})
	if err != nil {
		t.Fatal(err)
	}
	best := metrics.ArgminFinite(costs)
	gotPlan, gotPred, err := cm.SelectPlanCtx(context.Background(), plans, res)
	if err != nil {
		t.Fatal(err)
	}
	if gotPlan != plans[best] || math.Float64bits(gotPred) != math.Float64bits(costs[best]) {
		t.Fatalf("SelectPlanCtx (%p, %v) != argmin of EstimateBatchCtx (%p, %v)", gotPlan, gotPred, plans[best], costs[best])
	}
	// An empty candidate set stays well-defined.
	if p, _, err := cm.SelectPlanCtx(context.Background(), nil, res); err != nil || p != nil {
		t.Fatalf("empty set: plan %v err %v", p, err)
	}
}

// TestEstimateBatchCtxDeadline: a live deadline that cannot possibly be
// met on a big batch must surface context.DeadlineExceeded promptly.
func TestEstimateBatchCtxDeadline(t *testing.T) {
	sys, _, cm := sharedSystem(t)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	// An expired deadline is the deterministic way to exercise the path.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	start := time.Now()
	_, err = cm.EstimateBatchCtx(ctx, plans, DefaultResources(), PredictOpts{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("expired-deadline batch took %v", d)
	}
	// Sanity: the live-context batch agrees with EstimateBatch.
	got, err := cm.EstimateBatchCtx(context.Background(), plans, DefaultResources(), PredictOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := cm.EstimateBatch(plans, DefaultResources())
	for i := range want {
		if math.Abs(got[i]-want[i]) != 0 {
			t.Fatalf("batch ctx prediction %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestEstimateEachCtx: EstimateEachCtx prices each (plan, resources)
// pair exactly as EstimateCtx would price it alone,
// honours cancellation, and rejects mismatched slice lengths.
func TestEstimateEachCtx(t *testing.T) {
	sys, _, cm := sharedSystem(t)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct allocations per batch member.
	var batch []*Plan
	var res []Resources
	for i, ex := range []int{1, 2, 4, 8} {
		r := DefaultResources()
		r.Executors = ex
		batch = append(batch, plans[i%len(plans)])
		res = append(res, r)
	}
	got, err := cm.EstimateEachCtx(context.Background(), batch, res, PredictOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		alone, err := cm.EstimateCtx(context.Background(), batch[i], res[i])
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != alone {
			t.Fatalf("pair %d: batched %v != alone %v", i, got[i], alone)
		}
	}
	if _, err := cm.EstimateEachCtx(context.Background(), batch, res[:1], PredictOpts{}); err == nil {
		t.Fatal("mismatched plan/resource lengths must be rejected")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cm.EstimateEachCtx(ctx, batch, res, PredictOpts{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
