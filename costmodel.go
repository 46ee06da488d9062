package raal

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"raal/internal/core"
	"raal/internal/encode"
	"raal/internal/metrics"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
	"raal/internal/workload"
)

// Cost-model files open with a magic string and format version so that
// loading a truncated, corrupt, or non-model file fails with a clear
// error instead of an opaque gob failure (see core.ReadHeader).
const (
	costModelMagic        = "RAALcm"
	costModelVersion byte = 1
)

// CostModel is a trained end-to-end cost estimator: a fitted feature
// encoder plus a deep network of some Variant.
type CostModel struct {
	enc   *encode.Encoder
	model *core.Model
	instr *core.Instrumentation
	api   apiCounters
	cache *encodeCache // nil until EnableEncodeCache
}

// apiCounters tracks public estimation-API usage. The zero value (nil
// counters) is inert, so an uninstrumented model pays only nil checks.
type apiCounters struct {
	estimates  *telemetry.Counter // Estimate* calls
	selects    *telemetry.Counter // SelectPlanCtx calls
	recommends *telemetry.Counter // RecommendResourcesCtx calls
	encHits    *telemetry.Counter // encode-cache plan lookups served without re-encoding
	encMisses  *telemetry.Counter // encode-cache plan lookups that fell through to the encoder
}

// Instrument registers this model's telemetry on reg: API call counters
// (raal_api_*) plus the core inference and training metric families
// (predict latency/throughput, epoch progress). Call once at wiring time,
// before the model starts serving; the counters are then updated lock-free
// on every API call. Registration is get-or-create, so instrumenting
// several models on one registry aggregates them into the same families.
func (cm *CostModel) Instrument(reg *telemetry.Registry) {
	cm.api.estimates = reg.NewCounter("raal_api_estimates_total",
		"Direct cost-estimation API calls (Estimate and EstimateBatch variants).")
	cm.api.selects = reg.NewCounter("raal_api_plan_selections_total",
		"Plan-selection API calls (SelectPlanCtx).")
	cm.api.recommends = reg.NewCounter("raal_api_resource_recommendations_total",
		"Resource-recommendation API calls (RecommendResourcesCtx).")
	cm.api.encHits = reg.NewCounter("raal_encode_cache_hits_total",
		"Plan encodings served from the feature-encoding cache.")
	cm.api.encMisses = reg.NewCounter("raal_encode_cache_misses_total",
		"Plan encodings that missed the feature-encoding cache.")
	cm.instr = core.NewInstrumentation(reg)
	cm.model.Instrument(cm.instr)
}

// EnableEncodeCache attaches an LRU of up to capacity encoded plans to the
// estimation APIs. An entry is keyed on the plan alone and holds what is
// computed once per plan: its encoding (the operator-tree walk) and, after
// the first estimate, the plan prefix the serving network derived from it
// (embedding, recurrence, node-aware attention, resource-side keys). A
// repeated plan — under the same allocation or a new one — then costs a
// resource-vector normalization and the network's resource suffix.
// Estimates are bit-identical with and without the cache: the encoder is
// deterministic, samples are immutable once built, and a cached prefix is
// used only by the exact network and weights that produced it (a retrain
// or a promotion recomputes it). capacity <= 0 disables
// caching. Safe for concurrent use once set, but call before the model
// starts serving; hits and misses are counted per plan lookup and visible
// as raal_encode_cache_{hits,misses}_total when the model is instrumented.
func (cm *CostModel) EnableEncodeCache(capacity int) {
	if capacity <= 0 {
		cm.cache = nil
		return
	}
	cm.cache = newEncodeCache(capacity)
}

// encodePlan is planPart priced under res as a sample of its own, for a
// caller that keeps it (OnlineServing.Feedback). The estimation paths
// price a plan part into their call's rowBlock instead.
func (cm *CostModel) encodePlan(p *Plan, res Resources) *Sample {
	return cm.planPart(p).WithResource(cm.enc.EncodeResources(res))
}

// planPart returns p's plan-only encoding, from the cache when one is
// enabled. Price it under an allocation with WithResource: the copies
// share the plan part, so the network runs its plan prefix once for all of
// them, and a cached part also carries the memo slot that keeps that
// prefix for the next call. The memo is keyed by network and weight
// version, so one entry serves every champion an online loop promotes.
func (cm *CostModel) planPart(p *Plan) *Sample {
	if cm.cache == nil {
		return cm.enc.EncodePlanPart(p)
	}
	key := p.Key()
	if s, ok := cm.cache.get(key); ok {
		cm.api.encHits.Inc()
		return s
	}
	cm.api.encMisses.Inc()
	s := cm.enc.EncodePlanPart(p)
	s.Memo = new(encode.PlanMemo)
	cm.cache.add(key, s)
	return s
}

// TrainOptions controls cost-model training.
type TrainOptions struct {
	// Epochs (default 30), Batch (default 16), LR (default 3e-3).
	Epochs int
	Batch  int
	LR     float64
	// TrainFrac is the train split fraction (default 0.8); the remainder
	// becomes the held-out set reported by TrainCostModel.
	TrainFrac float64
	Seed      int64
	// Progress, if set, receives per-epoch training loss.
	Progress func(epoch int, loss float64)
	// Metrics, if set, receives training telemetry (epoch counter, latest
	// loss, shard throughput) during the run, and the returned CostModel
	// comes back already instrumented on the same registry (equivalent to
	// calling Instrument on it).
	Metrics *telemetry.Registry
}

// TrainReport summarizes a training run.
type TrainReport struct {
	TrainSamples, TestSamples int
	LossCurve                 []float64
	// Held-out metrics (RE and COR/R² on seconds, MSE on the log-cost
	// scale).
	Held Metrics
	// State is the run's resumable training state (optimizer moments and
	// shuffle position). Persist it with SaveCheckpoint to continue the
	// run later — ResumeCostModel from it reproduces an uninterrupted
	// longer run bit for bit.
	State *TrainState
}

// TrainCostModel fits an encoder on ds and trains a cost model of the
// given variant, returning the model and a held-out evaluation.
func TrainCostModel(ds *Dataset, v Variant, opt TrainOptions) (*CostModel, *TrainReport, error) {
	if ds == nil || len(ds.Records) == 0 {
		return nil, nil, fmt.Errorf("raal: empty dataset")
	}
	enc, err := ds.FitEncoder(encode.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	opt.defaults()
	mc := encoderConfig(enc)
	mc.Seed = opt.Seed
	cm := &CostModel{enc: enc, model: core.NewModel(v, mc)}
	report, err := cm.fit(core.NewTrainState(), ds, opt)
	if err != nil {
		return nil, nil, err
	}
	if opt.Metrics != nil {
		cm.Instrument(opt.Metrics)
	}
	return cm, report, nil
}

// defaults fills in the TrainFrac and Seed defaults.
func (opt *TrainOptions) defaults() {
	if opt.TrainFrac == 0 {
		opt.TrainFrac = 0.8
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
}

// fit trains cm's network in place from st on ds, encoded with cm's
// encoder, and evaluates it on the held-out split: the one body behind
// TrainCostModel and ResumeCostModel, so a resumed run splits, configures
// and reports exactly as the run it continues.
func (cm *CostModel) fit(st *TrainState, ds *Dataset, opt TrainOptions) (*TrainReport, error) {
	opt.defaults()
	train, test := workload.Split(ds.Encode(cm.enc), opt.TrainFrac, opt.Seed)
	if len(train) == 0 {
		return nil, fmt.Errorf("raal: train split is empty")
	}
	tc := core.DefaultTrainConfig()
	if opt.Epochs > 0 {
		tc.Epochs = opt.Epochs
	}
	if opt.Batch > 0 {
		tc.Batch = opt.Batch
	}
	if opt.LR > 0 {
		tc.LR = opt.LR
	}
	tc.Seed = opt.Seed
	tc.Progress = opt.Progress
	tc.State = st
	if opt.Metrics != nil {
		tc.Instr = core.NewInstrumentation(opt.Metrics)
	}
	tr, err := cm.model.Fit(train, tc)
	if err != nil {
		return nil, err
	}
	report := &TrainReport{TrainSamples: len(train), TestSamples: len(test), LossCurve: tr.LossCurve, State: st}
	if len(test) > 0 {
		if report.Held, err = cm.model.Evaluate(test); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// Variant returns the architecture this model was trained with.
func (cm *CostModel) Variant() Variant { return cm.model.Var }

// Estimate predicts the execution cost (seconds) of plan p under res.
func (cm *CostModel) Estimate(p *Plan, res Resources) float64 {
	cost, _ := cm.EstimateCtx(context.Background(), p, res) // Background never cancels
	return cost
}

// EstimateCtx is Estimate with cooperative cancellation: a cancelled or
// expired context aborts the forward pass boundary and returns ctx.Err().
// A span on ctx (telemetry.WithSpan) receives the per-stage breakdown:
// encode, then the network's stages (core.Model.ScoreCtx), to the same
// bits as an untraced call.
func (cm *CostModel) EstimateCtx(ctx context.Context, p *Plan, res Resources) (float64, error) {
	return cm.estimate(ctx, cm.model, p, res)
}

// estimate is the one body behind CostModel's and OnlineServing's
// EstimateCtx: it prices p under res with m, the model itself or the
// champion OnlineServing loaded for the call, as a one-row block through
// scorePlans, the body the batch APIs share.
func (cm *CostModel) estimate(ctx context.Context, m *core.Model, p *Plan, res Resources) (float64, error) {
	cm.api.estimates.Inc()
	stop := telemetry.SpanFrom(ctx).Stage("encode")
	part := cm.planPart(p)
	stop()
	b, plans := newRowBlock(1), [1]*Plan{p}
	preds, err := cm.scorePlans(ctx, m, plans[:], func(int) *Sample { return b.price(0, cm.enc, part, res) })
	if err != nil {
		return 0, err
	}
	return preds[0], nil
}

// EstimateBatch predicts costs for many plans under one allocation at
// once, each plan encoded and scored on one of GOMAXPROCS worker
// goroutines.
func (cm *CostModel) EstimateBatch(plans []*Plan, res Resources) []float64 {
	costs, _ := cm.EstimateBatchCtx(context.Background(), plans, res, core.PredictOpts{}) // Background never cancels
	return costs
}

// EstimateBatchCtx is EstimateBatch with cooperative cancellation: a
// cancelled or expired context aborts scoring within one chunk and
// returns ctx.Err(). With a live context the predictions are
// bit-identical to EstimateBatch. PredictOpts has no fields.
func (cm *CostModel) EstimateBatchCtx(ctx context.Context, plans []*Plan, res Resources, _ core.PredictOpts) ([]float64, error) {
	return cm.estimateBatch(ctx, cm.model, plans, res)
}

// estimateBatch is the one body behind both EstimateBatchCtx methods.
func (cm *CostModel) estimateBatch(ctx context.Context, m *core.Model, plans []*Plan, res Resources) ([]float64, error) {
	cm.api.estimates.Inc()
	return cm.priceUnder(ctx, m, plans, res)
}

// priceUnder prices every candidate under one allocation with m.
func (cm *CostModel) priceUnder(ctx context.Context, m *core.Model, plans []*Plan, res Resources) ([]float64, error) {
	b := newRowBlock(len(plans))
	return cm.scorePlans(ctx, m, plans, func(i int) *Sample {
		return b.price(i, cm.enc, cm.planPart(plans[i]), res)
	})
}

// rowBlock is one call's samples in one block, whatever their number:
// each row is a copy of a plan part priced under a resource vector carved
// from vecs, so rows of one plan part still share it (Sample.SamePlan).
// Row i is written once, by the goroutine that builds sample i.
type rowBlock struct {
	rows []Sample
	vecs []float64 // len(rows)×sparksim.NumFeatures
}

func newRowBlock(n int) rowBlock {
	return rowBlock{rows: make([]Sample, n), vecs: make([]float64, n*sparksim.NumFeatures)}
}

// price makes row i a copy of part priced under res, and returns it.
func (b rowBlock) price(i int, enc *encode.Encoder, part *Sample, res Resources) *Sample {
	const k = sparksim.NumFeatures
	s := &b.rows[i]
	*s = *part
	s.Resource = enc.EncodeResourcesInto(b.vecs[i*k:(i+1)*k:(i+1)*k], res)
	return s
}

// scorePlans prices plans with m, build(i) encoding plans[i] on the predict
// worker that scores it (core.Model.ScoreCtx).
func (cm *CostModel) scorePlans(ctx context.Context, m *core.Model, plans []*Plan, build func(i int) *Sample) ([]float64, error) {
	var buf [4]int // a short call's hints stay on the stack
	hints := slices.Grow(buf[:0], len(plans))
	for _, p := range plans {
		hints = append(hints, cm.lengthHint(p))
	}
	return m.ScoreCtx(ctx, hints, build)
}

// lengthHint is p's length hint for ScoreCtx: its node count, capped at the
// encoder's MaxNodes as the encoding truncates it.
func (cm *CostModel) lengthHint(p *Plan) int { return min(len(p.Nodes), cm.enc.MaxNodes()) }

// EstimateEachCtx predicts costs for many independent (plan, resources)
// pairs in one batched forward pass: plans[i] is priced under res[i].
// Predictions are bit-identical to pricing each pair alone with
// EstimateCtx. PredictOpts has no fields.
func (cm *CostModel) EstimateEachCtx(ctx context.Context, plans []*Plan, res []Resources, _ core.PredictOpts) ([]float64, error) {
	if len(plans) != len(res) {
		return nil, fmt.Errorf("raal: EstimateEachCtx got %d plan(s) but %d resource allocation(s)", len(plans), len(res))
	}
	cm.api.estimates.Inc()
	b := newRowBlock(len(plans))
	return cm.scorePlans(ctx, cm.model, plans, func(i int) *Sample {
		return b.price(i, cm.enc, cm.planPart(plans[i]), res[i])
	})
}

// errNoFinite is returned (wrapped) when every candidate's prediction is
// NaN or ±Inf: the weights or the inputs are corrupt, and ranking garbage
// would pick a winner silently.
var errNoFinite = errors.New("no candidate has a finite predicted cost")

// SelectPlanCtx returns the candidate with the lowest predicted cost
// under res and that prediction: the argmin of EstimateBatchCtx over the
// finite predictions. An empty candidate set yields a nil plan and no
// error; a candidate set without one finite prediction is an error
// (errNoFinite), as is a cancelled or expired context (ctx.Err()).
func (cm *CostModel) SelectPlanCtx(ctx context.Context, plans []*Plan, res Resources) (*Plan, float64, error) {
	if len(plans) == 0 {
		return nil, 0, nil
	}
	cm.api.selects.Inc()
	preds, err := cm.priceUnder(ctx, cm.model, plans, res)
	if err != nil {
		return nil, 0, err
	}
	best := metrics.ArgminFinite(preds)
	if best < 0 {
		return nil, 0, fmt.Errorf("raal: SelectPlan over %d plan(s): %w", len(plans), errNoFinite)
	}
	return plans[best], preds[best], nil
}

// RecommendResourcesCtx returns the allocation of grid with the cheapest
// predicted cost for plan p, and that cost — the inverse of the paper's
// main problem (Sec. II cites resource-matching systems [31,32]). The plan
// is looked up, encoded and run through the network's plan prefix once
// for the whole grid; each allocation then costs one resource vector and
// the network's resource suffix. Only finite predictions are ranked: a
// grid without one is an error (errNoFinite), as is a cancelled or
// expired context. An empty grid yields the zero allocation and no error.
func (cm *CostModel) RecommendResourcesCtx(ctx context.Context, p *Plan, grid []Resources) (Resources, float64, error) {
	if len(grid) == 0 {
		return Resources{}, 0, nil
	}
	cm.api.recommends.Inc()
	part := cm.planPart(p)
	hints, h := make([]int, len(grid)), cm.lengthHint(p)
	for i := range hints {
		hints[i] = h
	}
	b := newRowBlock(len(grid))
	preds, err := cm.model.ScoreCtx(ctx, hints, func(i int) *Sample {
		return b.price(i, cm.enc, part, grid[i])
	})
	if err != nil {
		return Resources{}, 0, err
	}
	best := metrics.ArgminFinite(preds)
	if best < 0 {
		return Resources{}, 0, fmt.Errorf("raal: RecommendResources over %d allocation(s): %w", len(grid), errNoFinite)
	}
	return grid[best], preds[best], nil
}

// DefaultResourceGrid enumerates the standard allocation lattice
// (executors × cores × memory on the 4-node cluster) used for resource
// recommendation.
func DefaultResourceGrid() []Resources {
	var grid []Resources
	base := DefaultResources()
	for _, ex := range []int{1, 2, 4, 8} {
		for _, cores := range []int{1, 2, 4} {
			for _, memGB := range []float64{1, 2, 4, 8, 12} {
				r := base
				r.Executors = ex
				r.ExecCores = cores
				r.ExecMemMB = memGB * 1024
				grid = append(grid, r)
			}
		}
	}
	return grid
}

// Save writes the magic header, encoder, and network weights to w.
func (cm *CostModel) Save(w io.Writer) error {
	if err := core.WriteHeader(w, costModelMagic, costModelVersion); err != nil {
		return err
	}
	if err := cm.enc.Save(w); err != nil {
		return err
	}
	return cm.model.Save(w)
}

// LoadCostModel reads a model previously written by Save. Truncated,
// corrupt, foreign, and version-mismatched files are rejected with
// descriptive errors — never a panic, never an opaque gob failure — and so
// is a network that does not fit the file's encoder (*core.InputError).
func LoadCostModel(r io.Reader) (*CostModel, error) {
	// The stream holds several gob sections (encoder, model header,
	// weights), each read by its own decoder; decoders wrap non-ByteReader
	// inputs in private read-ahead buffers that steal bytes from the next
	// section. Share one buffered reader so file-backed loads stay
	// aligned.
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	if err := core.ReadHeader(r, costModelMagic, costModelVersion, "cost model"); err != nil {
		return nil, err
	}
	enc, err := encode.LoadEncoder(r)
	if err != nil {
		return nil, fmt.Errorf("raal: loading cost-model encoder section (truncated or corrupt file): %w", err)
	}
	model, err := core.LoadModel(r)
	if err != nil {
		return nil, err
	}
	if err := model.Cfg.CheckInputs(encoderConfig(enc)); err != nil {
		return nil, err
	}
	return &CostModel{enc: enc, model: model}, nil
}

// encoderConfig is the default network configuration over enc's feature
// space: the input widths a network must read to score enc's samples.
func encoderConfig(enc *encode.Encoder) core.Config {
	return core.DefaultConfig(enc.NodeDim()-enc.MaxNodes()-2, enc.MaxNodes())
}
