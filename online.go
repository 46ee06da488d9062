package raal

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"

	"raal/internal/core"
	"raal/internal/online"
	"raal/internal/telemetry"
)

// Checkpoint files bundle a cost model with its resumable training state
// under their own magic, so `raaltrain -resume` can continue a run with
// bit-reproducible results and a model file handed to -resume fails with
// a clear "not a checkpoint" error.
const (
	checkpointMagic        = "RAALck"
	checkpointVersion byte = 1
)

// TrainState is the resumable half of a training run: the optimizer
// moments and the position in the seeded shuffle stream. Produced by
// TrainCostModel (TrainReport.State), persisted by SaveCheckpoint, and
// consumed by ResumeCostModel.
type TrainState = core.TrainState

// SaveCheckpoint writes a resumable training checkpoint: the cost model
// (encoder + weights) followed by its training state.
func SaveCheckpoint(w io.Writer, cm *CostModel, st *TrainState) error {
	if st == nil {
		return fmt.Errorf("raal: cannot checkpoint without a training state (train with TrainCostModel and use TrainReport.State)")
	}
	if err := core.WriteHeader(w, checkpointMagic, checkpointVersion); err != nil {
		return err
	}
	if err := cm.Save(w); err != nil {
		return err
	}
	return st.Save(w)
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint. Truncated,
// corrupt, foreign, and version-mismatched files are rejected with
// descriptive errors.
func LoadCheckpoint(r io.Reader) (*CostModel, *TrainState, error) {
	// Several gob sections share the stream; see LoadCostModel for why
	// they must share one buffered reader.
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	if err := core.ReadHeader(r, checkpointMagic, checkpointVersion, "training checkpoint"); err != nil {
		return nil, nil, err
	}
	cm, err := LoadCostModel(r)
	if err != nil {
		return nil, nil, err
	}
	st, err := core.LoadTrainState(r)
	if err != nil {
		return nil, nil, err
	}
	return cm, st, nil
}

// ResumeCostModel continues training cm in place from st on ds: the
// dataset is encoded with cm's already-fitted encoder (never refit — the
// feature space must stay the one the weights were trained in), the
// train/test split uses opt.TrainFrac and opt.Seed exactly as
// TrainCostModel does (pass the same values to continue on the same
// split), and Fit warm-starts from st, so resuming a run reproduces the
// uninterrupted run bit for bit. st is updated in place and remains
// checkpointable. A state whose optimizer snapshot does not match cm's
// architecture is rejected with a descriptive error.
func ResumeCostModel(cm *CostModel, st *TrainState, ds *Dataset, opt TrainOptions) (*TrainReport, error) {
	if ds == nil || len(ds.Records) == 0 {
		return nil, fmt.Errorf("raal: empty dataset")
	}
	if st == nil {
		return nil, fmt.Errorf("raal: nil training state (load one with LoadCheckpoint)")
	}
	return cm.fit(st, ds, opt)
}

// OnlineOptions tunes NewOnlineServing. The zero value is a working
// in-memory loop with the defaults documented on online.Config.
type OnlineOptions struct {
	// Dir, if non-empty, is the snapshot registry directory: every model
	// generation is persisted there with an integrity checksum, and a
	// restarted server resumes the manifest's champion.
	Dir string
	// ReplayCap bounds the replay reservoir (default 512).
	ReplayCap int
	// DriftWindow, DriftQuantile, DriftThreshold configure the rolling
	// q-error drift detector (defaults 64, 0.9, 2.0).
	DriftWindow    int
	DriftQuantile  float64
	DriftThreshold float64
	// MinRetrain and ShadowMin gate retraining and the shadow verdict
	// (defaults 64 and 32); Cooldown spaces automatic retrains (default
	// DriftWindow).
	MinRetrain int
	ShadowMin  int
	Cooldown   int
	// RetrainEpochs is the warm-start Fit length per challenger
	// (default 10).
	RetrainEpochs int
	Seed          int64
	// Metrics, if non-nil, receives the raal_online_* metric set.
	Metrics *telemetry.Registry
	// Logger, if non-nil, narrates drift triggers and promotions.
	Logger *slog.Logger
}

// OnlineServing serves estimates from a hot-swappable champion model
// while feeding observed outcomes back into the online learning loop
// (drift detection → replay-buffer retrain → shadow scoring → atomic
// promotion). It reuses cm's fitted encoder and encode cache for every
// generation — only the network weights change across promotions, never
// the feature space.
type OnlineServing struct {
	cm  *CostModel
	mgr *online.Manager
}

// NewOnlineServing wires the loop around cm as the bootstrap champion.
// st may be nil (the challenger then warm-starts from a cold optimizer);
// pass TrainReport.State or a loaded checkpoint state to make challenger
// training a true continuation.
func NewOnlineServing(cm *CostModel, st *TrainState, opt OnlineOptions) (*OnlineServing, error) {
	cfg := online.Config{
		ReplayCap:      opt.ReplayCap,
		Seed:           opt.Seed,
		DriftWindow:    opt.DriftWindow,
		DriftQuantile:  opt.DriftQuantile,
		DriftThreshold: opt.DriftThreshold,
		MinRetrain:     opt.MinRetrain,
		ShadowMin:      opt.ShadowMin,
		Cooldown:       opt.Cooldown,
		Logger:         opt.Logger,
	}
	cfg.Train.Epochs = opt.RetrainEpochs
	if opt.Metrics != nil {
		cfg.Metrics = online.NewMetrics(opt.Metrics)
	}
	if opt.Dir != "" {
		reg, err := online.OpenRegistry(opt.Dir)
		if err != nil {
			return nil, err
		}
		cfg.Registry = reg
	}
	mgr, err := online.NewManager(cm.model, st, cfg)
	if err != nil {
		return nil, err
	}
	return &OnlineServing{cm: cm, mgr: mgr}, nil
}

// EstimateCtx prices p under res with the current champion, loaded once
// so a concurrent promotion is invisible mid-request. A cached plan
// prefix is the one the champion's network derived, so a promotion
// recomputes it on first use.
func (o *OnlineServing) EstimateCtx(ctx context.Context, p *Plan, res Resources) (float64, error) {
	return o.cm.estimate(ctx, o.mgr.Champion().Model, p, res)
}

// EstimateBatchCtx prices candidate plans under one allocation with the
// current champion (one champion load for the whole batch).
func (o *OnlineServing) EstimateBatchCtx(ctx context.Context, plans []*Plan, res Resources, _ PredictOpts) ([]float64, error) {
	return o.cm.estimateBatch(ctx, o.mgr.Champion().Model, plans, res)
}

// Feedback ingests one observed outcome: the plan and allocation that
// were served, the prediction that was returned, and the execution time
// then actually observed. This is the loop's only learning input; call
// it from a feedback worker (it retrains synchronously when drift
// triggers), never from a request path. The plan is looked up exactly as
// EstimateCtx looked it up, so feeding back a served plan is a cache hit
// on the entry that served it.
func (o *OnlineServing) Feedback(p *Plan, res Resources, predicted, actual float64) {
	o.mgr.Observe(o.cm.encodePlan(p, res), predicted, actual)
}

// AdminHandler returns the /models admin surface (list, promote,
// rollback, pin) for mounting on an operator-facing mux.
func (o *OnlineServing) AdminHandler() http.Handler { return o.mgr.AdminHandler() }

// ChampionVersion returns the generation number currently serving.
func (o *OnlineServing) ChampionVersion() int { return o.mgr.Champion().Num }

// Status returns the loop's current state (what GET /models serves).
func (o *OnlineServing) Status() online.Status { return o.mgr.Status() }
