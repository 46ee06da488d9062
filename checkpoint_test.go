package raal

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestCheckpointResumeBitEqual is the public-API half of the resume
// guarantee: training 4 epochs, checkpointing through the wire format,
// and resuming for 4 more must reproduce an uninterrupted 8-epoch run
// bit for bit.
func TestCheckpointResumeBitEqual(t *testing.T) {
	sys, ds, _ := sharedSystem(t)
	opts := TrainOptions{Epochs: 8, LR: 5e-3}
	long, _, err := TrainCostModel(ds, RAAL(), opts)
	if err != nil {
		t.Fatal(err)
	}

	half := opts
	half.Epochs = 4
	short, report, err := TrainCostModel(ds, RAAL(), half)
	if err != nil {
		t.Fatal(err)
	}
	if report.State == nil || report.State.Epochs != 4 {
		t.Fatalf("TrainReport.State = %+v, want 4 trained epochs", report.State)
	}

	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, short, report.State); err != nil {
		t.Fatal(err)
	}
	resumed, st, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeCostModel(resumed, st, ds, half); err != nil {
		t.Fatal(err)
	}
	if st.Epochs != 8 {
		t.Fatalf("resumed state counts %d epochs, want 8", st.Epochs)
	}

	plans, err := sys.Plan(`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 100`)
	if err != nil {
		t.Fatal(err)
	}
	res := DefaultResources()
	if a, b := long.Estimate(plans[0], res), resumed.Estimate(plans[0], res); a != b {
		t.Fatalf("resumed run diverged from uninterrupted run: %v != %v", b, a)
	}
}

func TestCheckpointErrors(t *testing.T) {
	_, ds, cm := sharedSystem(t)
	if err := SaveCheckpoint(&bytes.Buffer{}, cm, nil); err == nil {
		t.Fatal("checkpointing without a training state should error")
	}
	// A bare model file is not a checkpoint.
	var model bytes.Buffer
	if err := cm.Save(&model); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(&model); err == nil {
		t.Fatal("model file accepted as checkpoint")
	}
	if _, err := ResumeCostModel(cm, nil, ds, TrainOptions{Epochs: 1}); err == nil {
		t.Fatal("resuming without a training state should error")
	}
}

// TestOnlineServingPublicAPI drives the public online-serving wrapper:
// estimates come from the champion, feedback flows into the loop, and
// the admin surface reports it.
func TestOnlineServingPublicAPI(t *testing.T) {
	sys, _, cm := sharedSystem(t)
	osrv, err := NewOnlineServing(cm, nil, OnlineOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if osrv.ChampionVersion() != 1 {
		t.Fatalf("bootstrap champion v%d, want v1", osrv.ChampionVersion())
	}

	plans, err := sys.Plan(`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 100`)
	if err != nil {
		t.Fatal(err)
	}
	res := DefaultResources()
	pred, err := osrv.EstimateCtx(t.Context(), plans[0], res)
	if err != nil {
		t.Fatal(err)
	}
	if want := cm.Estimate(plans[0], res); pred != want {
		t.Fatalf("champion estimate %v != cost-model estimate %v", pred, want)
	}
	actual, err := sys.Cost(plans[0], res)
	if err != nil {
		t.Fatal(err)
	}
	osrv.Feedback(plans[0], res, pred, actual)
	if st := osrv.Status(); st.Champion != 1 || st.ReplayLen != 1 {
		t.Fatalf("status after one feedback = %+v", st)
	}

	rec := httptest.NewRecorder()
	osrv.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/models", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /models = %d: %s", rec.Code, rec.Body)
	}
	var got struct {
		Champion int `json:"champion"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&got); err != nil || got.Champion != 1 {
		t.Fatalf("GET /models body champion=%d err=%v", got.Champion, err)
	}
}

// TestOnlineFeedbackSharesEstimateCacheEntry: Feedback must look the plan
// up under the key EstimateCtx used — one entry, one miss, one hit — so a
// fed-back plan is never encoded a second time.
func TestOnlineFeedbackSharesEstimateCacheEntry(t *testing.T) {
	sys, _, shared := sharedSystem(t)
	cm := &CostModel{enc: shared.enc, model: shared.model.Clone()}
	cm.Instrument(NewMetricsRegistry())
	cm.EnableEncodeCache(8)
	osrv, err := NewOnlineServing(cm, nil, OnlineOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plans, err := sys.Plan(`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 100`)
	if err != nil {
		t.Fatal(err)
	}
	res := DefaultResources()
	pred, err := osrv.EstimateCtx(t.Context(), plans[0], res)
	if err != nil {
		t.Fatal(err)
	}
	osrv.Feedback(plans[0], res, pred, 2*pred)

	stats := cm.EncodeCacheKeyStats()
	if len(stats) != 1 || stats[0].Key != FingerprintID(PlanOnlyFingerprint(plans[0])) || stats[0].Hits != 1 {
		t.Fatalf("cache after one estimate and its feedback: %+v, want the plan's one entry with one hit", stats)
	}
	if h, m := cm.api.encHits.Value(), cm.api.encMisses.Value(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1 and 1", h, m)
	}
}
