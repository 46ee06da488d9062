package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"raal/internal/core"
	"raal/internal/encode"
	"raal/internal/online"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
	"raal/internal/tensor"
)

// OnlineBench is the seeded workload-shift drill through the full
// online-learning loop (internal/online): a champion trained on one cost
// distribution serves feedback from a shifted one, the rolling q-error
// quantile trips the drift detector, a challenger warm-starts from the
// replay reservoir, wins the shadow comparison, and is promoted. The
// q-error triplet is the recovery story; TestOnlineReproducesCommittedReport
// pins every field but ns_op to results/BENCH_online.json.
type OnlineBench struct {
	Name string  `json:"name"`
	NsOp float64 `json:"ns_op"` // mean wall time per feedback observation
	N    int     `json:"n"`     // feedback observations ingested

	// Mean served q-error per phase: on the trained distribution, on the
	// shifted distribution before the promotion lands (the drift the
	// detector sees), and on a shifted holdout after promotion.
	PreShiftQ    float64 `json:"pre_shift_q"`
	DriftPeakQ   float64 `json:"drift_peak_q"`
	PostPromoteQ float64 `json:"post_promote_q"`
	// StaleQ prices the same post-shift holdout with the original
	// champion — what serving would still look like without the loop.
	StaleQ float64 `json:"stale_q"`

	// Loop bookkeeping for the run.
	DriftTriggers uint64 `json:"drift_triggers"`
	Retrains      uint64 `json:"retrains"`
	Promotions    uint64 `json:"promotions"`
	Champion      int    `json:"champion"`
	// PromotedAt is the index of the post-shift feedback at which the
	// promoted challenger first served (-1 = never promoted).
	PromotedAt int `json:"promoted_at"`
}

// OnlineResult is the drift-drill report.
type OnlineResult struct {
	Benchmarks []OnlineBench `json:"benchmarks"`
}

// Print renders the recovery table.
func (r *OnlineResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%-22s %10s %10s %10s %10s %8s %8s %7s %9s\n",
		"workload", "pre-q", "drift-q", "post-q", "stale-q", "trigger", "promote", "champ", "at-fdbk")
	for _, b := range r.Benchmarks {
		fmt.Fprintf(w, "%-22s %10.3f %10.3f %10.3f %10.3f %8d %8d %7s %9d\n",
			b.Name, b.PreShiftQ, b.DriftPeakQ, b.PostPromoteQ, b.StaleQ,
			b.DriftTriggers, b.Promotions, fmt.Sprintf("v%d", b.Champion), b.PromotedAt)
	}
}

// JSON writes the machine-readable form (results/BENCH_online.json).
func (r *OnlineResult) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Synthetic-sample dimensions, mirroring the core package's benchmark
// fixture.
const (
	synthSem   = 4
	synthNodes = 6
	synthStats = 6
)

// synthSample fabricates an encoded plan whose cost depends on both node
// content and the resource vector (the same construction the core tests
// benchmark against).
func synthSample(rng *rand.Rand) *encode.Sample {
	dim := synthSem + synthNodes + 2
	s := &encode.Sample{
		Nodes:    tensor.New(synthNodes, dim),
		Mask:     make([]bool, synthNodes),
		Children: make([][]bool, synthNodes),
		Resource: make([]float64, sparksim.NumFeatures),
		Stats:    make([]float64, synthStats),
	}
	n := 3 + rng.Intn(synthNodes-2)
	for i := 0; i < synthNodes; i++ {
		s.Children[i] = make([]bool, synthNodes)
	}
	var nodeSig float64
	for i := 0; i < n; i++ {
		s.Mask[i] = true
		row := s.Nodes.Row(i)
		for d := 0; d < synthSem; d++ {
			row[d] = rng.Float64()
			nodeSig += row[d]
		}
		if i > 0 { // chain structure
			row[synthSem+i-1] = 1
			s.Children[i][i-1] = true
			s.Nodes.Row(i - 1)[synthSem+i] = -1
		}
		row[synthSem+synthNodes] = rng.Float64()
		row[synthSem+synthNodes+1] = rng.Float64()
	}
	for j := range s.Resource {
		s.Resource[j] = rng.Float64()
	}
	for j := range s.Stats {
		s.Stats[j] = rng.Float64()
	}
	mem := s.Resource[4]
	s.CostSec = 2 + nodeSig + 12*(mem-0.5)*(mem-0.5) + 0.5*s.Stats[0]
	return s
}

// onlineDataset draws n synthetic samples with a cost-surface multiplier:
// scale > 1 is the injected workload shift — the "same" queries suddenly
// run scale× slower than the distribution the champion trained on.
func onlineDataset(n int, seed int64, scale float64) []*encode.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*encode.Sample, n)
	for i := range out {
		out[i] = synthSample(rng)
		out[i].CostSec *= scale
	}
	return out
}

// Drill shape: the shift multiplies every cost by onlineShift, and the
// post-shift stream is long enough for the window to fill, the retrain
// to fire, and the shadow comparison to settle.
const (
	onlineShift     = 3.0
	onlinePreFeeds  = 64
	onlinePostFeeds = 600
	onlineHoldout   = 64
)

// Online runs the seeded drift drill. Everything is deterministic for a
// fixed -seed: the champion's training, the feedback streams, the
// reservoir, and the challenger's warm-start Fit, so the promoted
// version and its q-errors reproduce bit-for-bit run over run.
func Online(opt Options) (*OnlineResult, error) {
	cfg := core.DefaultConfig(synthSem, synthNodes)
	cfg.Hidden = 16
	cfg.K = 8
	cfg.Seed = opt.Seed
	tc := core.DefaultTrainConfig()
	tc.Epochs = 40
	tc.Batch = 16
	tc.LR = 5e-3
	tc.Seed = opt.Seed
	tc.State = core.NewTrainState()
	champ, _, err := core.Train(onlineDataset(200, 1, 1), core.RAAL(), cfg, tc)
	if err != nil {
		return nil, err
	}
	stale := champ.Clone() // what serving would be stuck with, frozen pre-drill

	met := online.NewMetrics(telemetry.NewRegistry())
	mgr, err := online.NewManager(champ, tc.State, online.Config{
		ReplayCap:      256,
		Seed:           opt.Seed,
		DriftWindow:    32,
		DriftThreshold: 1.8,
		MinRetrain:     96,
		ShadowMin:      24,
		Cooldown:       128, // space retrains out: the drill is about recovery, not churn
		Train:          core.TrainConfig{Epochs: 40, Batch: 16, LR: 5e-3, Seed: opt.Seed},
		Metrics:        met,
	})
	if err != nil {
		return nil, err
	}

	// feed serves one sample off the live champion and closes the loop
	// with the observed cost, returning the served q-error.
	feed := func(s *encode.Sample) float64 {
		v := mgr.Champion()
		preds, _ := v.Model.PredictCtx(context.Background(), []*encode.Sample{s}, core.PredictOpts{}) // Background never cancels
		pred := preds[0]
		mgr.Observe(s, pred, s.CostSec)
		return online.QError(pred, s.CostSec)
	}

	start := time.Now()
	// Phase 1: the trained distribution — the loop must hold still.
	var preQ float64
	for _, s := range onlineDataset(onlinePreFeeds, 21, 1) {
		preQ += feed(s)
	}
	preQ /= onlinePreFeeds

	// Phase 2: the shift. Serve and observe until the loop has detected,
	// retrained, shadow-scored, and promoted.
	var (
		driftSum   float64
		driftN     int
		promotedAt = -1
	)
	for i, s := range onlineDataset(onlinePostFeeds, 22, onlineShift) {
		q := feed(s)
		if mgr.Champion().Num == 1 {
			driftSum += q // stale champion pricing shifted work
			driftN++
		} else if promotedAt < 0 {
			promotedAt = i
		}
	}
	elapsed := time.Since(start)
	if promotedAt < 0 {
		return nil, fmt.Errorf("experiments: drift drill never promoted a challenger: %+v", mgr.Status())
	}

	// Phase 3: recovery, scored on a shifted holdout neither model saw.
	holdout := onlineDataset(onlineHoldout, 23, onlineShift)
	fresh := mgr.Champion()
	postQ := meanQErr(fresh.Model, holdout)
	staleQ := meanQErr(stale, holdout)

	n := onlinePreFeeds + onlinePostFeeds
	return &OnlineResult{Benchmarks: []OnlineBench{{
		Name:          "online/drift-drill",
		NsOp:          float64(elapsed.Nanoseconds()) / float64(n),
		N:             n,
		PreShiftQ:     preQ,
		DriftPeakQ:    driftSum / float64(driftN),
		PostPromoteQ:  postQ,
		StaleQ:        staleQ,
		DriftTriggers: met.DriftTriggers.Value(),
		Retrains:      met.Retrains.Value(),
		Promotions:    met.Promotions.With("shadow").Value(),
		Champion:      fresh.Num,
		PromotedAt:    promotedAt,
	}}}, nil
}

// meanQErr is the mean q-error of m's predictions over samples.
func meanQErr(m *core.Model, samples []*encode.Sample) float64 {
	preds, _ := m.PredictCtx(context.Background(), samples, core.PredictOpts{}) // Background never cancels
	var sum float64
	for i, s := range samples {
		sum += online.QError(preds[i], s.CostSec)
	}
	return sum / float64(len(samples))
}
