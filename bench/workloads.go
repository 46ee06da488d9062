package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"raal"
	"raal/internal/core"
	"raal/internal/encode"
	"raal/internal/fleet"
	"raal/internal/physical"
	"raal/internal/serve"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
)

// Workload names: the other half of the "metric X on workload Y" contract.
const (
	wlRoute   = "route_estimate_hot"
	wlSelect  = "select_sql_cold"
	wlAdvise  = "advise_grid"
	wlOffline = "offline_collect_train"
)

var workloadNames = []string{wlRoute, wlSelect, wlAdvise, wlOffline}

// workload is one traffic mix. Every method but op runs on one goroutine.
type workload interface {
	// setup builds everything the ops need, from nothing.
	setup(seed int64) error
	// clients is how many closed-loop callers the untraced run uses.
	clients() int
	// cycle is how many consecutive ops make one balanced set of inputs;
	// statistics are taken over whole cycles.
	cycle() int
	// op runs client c's k-th op and returns the latency the client saw.
	// With rec nil it goes through the program's public entry point; with
	// a recorder it does the same work with a span around each layer.
	op(c, k int, rec *recorder) (time.Duration, error)
	// verify recomputes sampled outputs after the measured phase.
	verify() error
	// heldoutRE is the served model's held-out relative error.
	heldoutRE() float64
	// layerCounts reports counter-based per-layer metrics after ops ops.
	layerCounts(ops int) map[string]float64
	// prepareTrace readies whatever op needs before it is given a recorder.
	prepareTrace(rec *recorder) error
	// probeInputs returns, after the traced ops, the benchmark-owned model
	// and the queries the layer probes run on.
	probeInputs() (*pipeline, *substrate, []string, error)
	close()
}

func newWorkload(name string, p params) (workload, error) {
	switch name {
	case wlRoute:
		return &routeHot{model: model{p: p}}, nil
	case wlSelect:
		return &selectCold{model: model{p: p}}, nil
	case wlAdvise:
		return &adviseGrid{model: model{p: p}}, nil
	case wlOffline:
		return &offline{p: p}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// warmUp sends n ops from a client id no measured client uses, so warm-up
// does not consume the measured request sequence.
func warmUp(w workload, n int) error {
	for k := 0; k < n; k++ {
		if _, err := w.op(w.clients(), k, nil); err != nil {
			return fmt.Errorf("warm-up op %d: %w", k, err)
		}
	}
	return nil
}

// model is the part of set-up the three serving workloads share.
type model struct {
	p       params
	seed    int64
	sub     *substrate
	sv      *served
	queries []string  // ordered by plan size; op inputs derive from them
	pipe    *pipeline // benchmark-owned copy of the served model; traced runs only
}

func (m *model) clients() int  { return 1 }
func (m *model) cycle() int    { return 1 }
func (m *model) verify() error { return nil }
func (m *model) close()        {}

func (m *model) probeInputs() (*pipeline, *substrate, []string, error) {
	return m.pipe, m.sub, m.queries, nil
}

func (m *model) setupModel(seed int64) (err error) {
	m.seed = seed
	if m.sub, err = newSubstrate(m.p.scale); err != nil {
		return err
	}
	m.sv, err = newServed(m.p)
	return err
}

func (m *model) heldoutRE() float64 { return m.sv.report.Held.RE }

func (m *model) layerCounts(int) map[string]float64 {
	out := map[string]float64{}
	if hits, misses := m.sv.cacheCounts(); hits+misses > 0 {
		out["raal.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	return out
}

// prepareTrace rebuilds the served model layer by layer, which times the
// offline stages on the set-up corpus and hands the traced ops an encoder and
// network they can call directly (raal.CostModel keeps its own private).
func (m *model) prepareTrace(rec *recorder) error {
	root := rec.begin(spanProbe, "")
	defer rec.end(root)
	pipe, err := runPipeline(rec, spanProbe, m.sub.db, m.p.corpusQueries, m.p.corpusEpochs, fixedSeed)
	if err != nil {
		return err
	}
	if pipe.heldRE != m.heldoutRE() {
		return fmt.Errorf("layer-by-layer pipeline trained a different model than TrainCostModel: held-out RE %v vs %v",
			pipe.heldRE, m.heldoutRE())
	}
	m.pipe = pipe
	return nil
}

func top3(plans []*physical.Plan) []*physical.Plan {
	if len(plans) > 3 {
		return plans[:3]
	}
	return plans
}

func argmin(xs []float64) int {
	best := 0
	for i := range xs {
		if xs[i] < xs[best] {
			best = i
		}
	}
	return best
}

func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

func closeTo(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }

// pick is one sampled answer kept for verify.
type pick struct {
	input, choice int
	cost          float64
}

// ---------------------------------------------------------------------------
// route_estimate_hot

// routeHot sends POST /estimate over loopback HTTP to a fleet.Router in
// front of one serve.Handler replica, wired as cmd/raalserve wires them
// (router and replica each own a raal.System behind a planner mutex; queue
// 64, 500 ms deadline with GPSJ fallback, batching off), drawing from a hot
// set of queries so the replica's encode cache always hits.
type routeHot struct {
	model
	bodies [][]byte  // request body per hot query
	ref    []float64 // in-process CostModel.Estimate per hot query

	url      string
	client   *http.Client
	router   *fleet.Router
	fleetMet *fleet.Metrics
	servers  []*http.Server
	serving  sync.WaitGroup
	rec      atomic.Pointer[recorder]
	degraded atomic.Int64
}

func (w *routeHot) clients() int { return 2 }

func (w *routeHot) setup(seed int64) (err error) {
	if err = w.setupModel(seed); err != nil {
		return err
	}
	if w.queries, err = w.sub.queries(seed, w.p.hotSet, w.p.oversample[wlRoute]); err != nil {
		return err
	}
	for _, q := range w.queries {
		plans, err := w.sv.sys.Plan(q)
		if err != nil {
			return err
		}
		body, err := json.Marshal(serve.EstimateRequest{SQL: q})
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
		w.ref = append(w.ref, w.sv.cm.Estimate(plans[0], raal.DefaultResources()))
	}

	gpsj := raal.NewGPSJBaseline()
	fallback := func(_ context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
		return gpsj.Estimate(p, res), nil
	}

	met := serve.NewMetrics(w.sv.reg)
	srv, err := serve.New(serve.Config{
		Deep: func(ctx context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
			rec := w.rec.Load()
			id := rec.begin("serve.deep", "serve.handle")
			defer rec.end(id)
			return w.sv.cm.EstimateCtx(ctx, p, res)
		},
		DeepBatch: func(ctx context.Context, plans []*physical.Plan, res sparksim.Resources) ([]float64, error) {
			return w.sv.cm.EstimateBatchCtx(ctx, plans, res, raal.PredictOpts{})
		},
		Fallback:   fallback,
		QueueDepth: 64,
		Deadline:   500 * time.Millisecond,
		OnDeadline: serve.FallbackOnDeadline,
		Metrics:    met,
	})
	if err != nil {
		return err
	}
	replicaPlan, err := w.planner(w.sv.sys, "serve.plan", "serve.handle")
	if err != nil {
		return err
	}
	handler, err := serve.NewHandler(srv, serve.HTTPConfig{Planner: replicaPlan, MaxCandidates: 3, Metrics: met})
	if err != nil {
		return err
	}
	replicaURL, err := w.listen(w.spanned("serve.handle", "fleet.route", handler))
	if err != nil {
		return err
	}

	routerSys, err := raal.Open(raal.IMDB, w.p.scale, fixedSeed)
	if err != nil {
		return err
	}
	routerPlan, err := w.planner(routerSys, "fleet.plan", "fleet.route")
	if err != nil {
		return err
	}
	w.fleetMet = fleet.NewMetrics(telemetry.NewRegistry(), []string{"r0"})
	w.router, err = fleet.New(fleet.Config{
		Replicas:      []fleet.Replica{{ID: "r0", URL: replicaURL}},
		Planner:       routerPlan,
		Fingerprint:   raal.PlanFingerprint,
		Fallback:      fallback,
		MaxCandidates: 3,
		Seed:          fixedSeed,
		Metrics:       w.fleetMet,
	})
	if err != nil {
		return err
	}
	routerURL, err := w.listen(w.spanned("fleet.route", "client.http", w.router))
	if err != nil {
		return err
	}
	w.url = routerURL + "/estimate"
	w.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: w.clients()},
		Timeout:   10 * time.Second,
	}
	return warmUp(w, w.p.warmup[wlRoute])
}

// planner returns a serve.PlanFunc as raalserve builds it: System.Plan
// behind a mutex, because the planning substrate is not concurrency-safe.
// While a recorder is installed it plans on a substrate of its own instead,
// which is the same work with a span around each layer.
func (w *routeHot) planner(sys *raal.System, name, parent string) (serve.PlanFunc, error) {
	sub, err := newSubstrate(w.p.scale)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	return func(query string) ([]*physical.Plan, error) {
		mu.Lock()
		defer mu.Unlock()
		rec := w.rec.Load()
		if rec == nil {
			return sys.Plan(query)
		}
		id := rec.begin(name, parent)
		defer rec.end(id)
		return sub.plan(rec, name, query)
	}, nil
}

// spanned wraps a handler the benchmark mounts with a span around each
// /estimate request (the router's health probes stay out of the trace).
func (w *routeHot) spanned(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := w.rec.Load()
		if rec == nil || r.URL.Path != "/estimate" {
			h.ServeHTTP(rw, r)
			return
		}
		id := rec.begin(name, parent)
		h.ServeHTTP(rw, r)
		rec.end(id)
	})
}

// listen serves h on a free loopback port until close.
func (w *routeHot) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	w.servers = append(w.servers, srv)
	w.serving.Add(1)
	go func() {
		defer w.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

func (w *routeHot) op(c, k int, rec *recorder) (time.Duration, error) {
	if w.rec.Load() != rec {
		w.rec.Store(rec)
	}
	i := draw(w.seed, c, k, len(w.bodies))
	root := rec.startOp(k)
	defer rec.endOp(root)

	call := rec.begin("client.http", spanOp)
	t := time.Now()
	resp, err := w.client.Post(w.url, "application/json", bytes.NewReader(w.bodies[i]))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t)
	rec.end(call)
	if err != nil {
		return d, err
	}

	// The output check runs after the client's clock stopped.
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("query %d: HTTP %d: %s", i, resp.StatusCode, bytes.TrimSpace(body))
	}
	var got serve.EstimateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return d, fmt.Errorf("query %d: %w", i, err)
	}
	if got.Degraded {
		w.degraded.Add(1)
	}
	if got.Source != "model" || got.Degraded || !closeTo(got.CostSec, w.ref[i], 1e-3) {
		return d, fmt.Errorf("query %d: got %+v, want source model and cost %v", i, got, w.ref[i])
	}
	return d, nil
}

func (w *routeHot) layerCounts(ops int) map[string]float64 {
	out := w.model.layerCounts(ops)
	if ops > 0 {
		out["fleet.hedge_frac"] = float64(w.fleetMet.Hedges.With("fired").Value()) / float64(ops)
		out["fleet.retry_frac"] = float64(w.fleetMet.Retries.Value()) / float64(ops)
		out["serve.degraded_frac"] = float64(w.degraded.Load()) / float64(ops)
	}
	return out
}

func (w *routeHot) close() {
	if w.router != nil {
		w.router.Close()
	}
	for _, srv := range w.servers {
		_ = srv.Close()
	}
	w.serving.Wait()
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

// ---------------------------------------------------------------------------
// select_sql_cold

// selectCold is the paper's headline use, in process: plan a query and let
// the model pick among its top three candidates. Queries are drawn from far
// more distinct plans than the encode cache holds, so nearly every op
// parses, binds, enumerates and encodes from cold.
type selectCold struct {
	model
	res   raal.Resources
	picks []pick
}

func (w *selectCold) setup(seed int64) (err error) {
	if err = w.setupModel(seed); err != nil {
		return err
	}
	w.res = raal.DefaultResources()
	if w.queries, err = w.sub.queries(seed, w.p.selectPool, w.p.oversample[wlSelect]); err != nil {
		return err
	}
	return warmUp(w, w.p.warmup[wlSelect])
}

func (w *selectCold) op(c, k int, rec *recorder) (time.Duration, error) {
	i := draw(w.seed, c, k, len(w.queries))
	ctx := context.Background()
	if rec != nil {
		return w.traced(ctx, i, k, rec)
	}
	var (
		best *raal.Plan
		cost float64
	)
	t := time.Now()
	plans, err := w.sv.sys.Plan(w.queries[i])
	if err == nil {
		plans = top3(plans)
		best, cost, err = w.sv.cm.SelectPlanCtx(ctx, plans, w.res)
	}
	d := time.Since(t)
	if err != nil {
		return d, fmt.Errorf("query %d: %w", i, err)
	}
	if best == nil || !positive(cost) {
		return d, fmt.Errorf("query %d: selected plan %v at cost %v", i, best, cost)
	}
	if k%w.p.checkEvery == 0 {
		choice := 0
		for j, p := range plans {
			if p == best {
				choice = j
			}
		}
		w.picks = append(w.picks, pick{i, choice, cost})
	}
	return d, nil
}

func (w *selectCold) traced(ctx context.Context, i, k int, rec *recorder) (time.Duration, error) {
	root := rec.startOp(k)
	defer rec.endOp(root)
	t := time.Now()
	plans, err := w.sub.plan(rec, spanOp, w.queries[i])
	if err != nil {
		return time.Since(t), err
	}
	plans = top3(plans)
	samples := make([]*encode.Sample, len(plans))
	for j, p := range plans {
		samples[j] = encodeKeyed(rec, spanOp, w.pipe.enc, p, w.res)
	}
	var costs []float64
	rec.time("core.forward_b3", spanOp, func() int {
		costs, err = w.pipe.model.PredictCtx(ctx, samples, core.PredictOpts{})
		return len(samples)
	})
	d := time.Since(t)
	if err != nil {
		return d, err
	}
	if best := argmin(costs); !positive(costs[best]) {
		return d, fmt.Errorf("query %d: cheapest candidate costs %v", i, costs[best])
	}
	return d, nil
}

func (w *selectCold) verify() error {
	for _, pk := range w.picks {
		plans, err := w.sv.sys.Plan(w.queries[pk.input])
		if err != nil {
			return err
		}
		costs := w.sv.cm.EstimateBatch(top3(plans), w.res)
		if best := argmin(costs); best != pk.choice || !closeTo(pk.cost, costs[best], 1e-9) {
			return fmt.Errorf("query %d: selected candidate %d at %v, but EstimateBatch prices them %v",
				pk.input, pk.choice, pk.cost, costs)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// advise_grid

// adviseGrid is resource recommendation: one pre-planned plan priced under
// the 60 allocations of the default grid in one batched forward pass. No
// planning happens inside an op.
type adviseGrid struct {
	model
	plans []*raal.Plan
	grid  []raal.Resources
	picks []pick
}

func (w *adviseGrid) setup(seed int64) (err error) {
	if err = w.setupModel(seed); err != nil {
		return err
	}
	w.grid = raal.DefaultResourceGrid()
	if w.queries, err = w.sub.queries(seed, w.p.advisePlans, w.p.oversample[wlAdvise]); err != nil {
		return err
	}
	for _, q := range w.queries {
		plans, err := w.sv.sys.Plan(q)
		if err != nil {
			return err
		}
		w.plans = append(w.plans, plans[0])
	}
	return warmUp(w, w.p.warmup[wlAdvise])
}

func (w *adviseGrid) op(c, k int, rec *recorder) (time.Duration, error) {
	i := draw(w.seed, c, k, len(w.plans))
	ctx := context.Background()
	if rec != nil {
		return w.traced(ctx, i, k, rec)
	}
	t := time.Now()
	res, cost, err := w.sv.cm.RecommendResourcesCtx(ctx, w.plans[i], w.grid)
	d := time.Since(t)
	if err != nil {
		return d, fmt.Errorf("plan %d: %w", i, err)
	}
	if !positive(cost) {
		return d, fmt.Errorf("plan %d: recommended %v at cost %v", i, res, cost)
	}
	if k%w.p.checkEvery == 0 {
		choice := 0
		for j, g := range w.grid {
			if g == res {
				choice = j
			}
		}
		w.picks = append(w.picks, pick{i, choice, cost})
	}
	return d, nil
}

func (w *adviseGrid) traced(ctx context.Context, i, k int, rec *recorder) (time.Duration, error) {
	root := rec.startOp(k)
	defer rec.endOp(root)
	t := time.Now()
	samples := encodeGrid(rec, spanOp, w.pipe.enc, w.plans[i], w.grid)
	var (
		costs []float64
		err   error
	)
	rec.time("core.forward_b60", spanOp, func() int {
		costs, err = w.pipe.model.PredictCtx(ctx, samples, core.PredictOpts{})
		return len(samples)
	})
	d := time.Since(t)
	if err != nil {
		return d, err
	}
	if best := argmin(costs); !positive(costs[best]) {
		return d, fmt.Errorf("plan %d: cheapest allocation costs %v", i, costs[best])
	}
	return d, nil
}

// encodeKeyed does what CostModel does for a plan its encode cache misses:
// fingerprint the (plan, allocation) pair, then encode it.
func encodeKeyed(rec *recorder, parent string, enc *encode.Encoder, p *physical.Plan, res raal.Resources) (s *encode.Sample) {
	rec.time("raal.fingerprint", parent, func() int { _ = raal.PlanFingerprint(p, res); return 1 })
	rec.time("encode.plan", parent, func() int { s = enc.EncodePlan(p, res); return 1 })
	return s
}

// encodeGrid fingerprints and encodes one plan under every allocation of
// the grid, one span each for the whole grid.
func encodeGrid(rec *recorder, parent string, enc *encode.Encoder, p *physical.Plan, grid []raal.Resources) []*encode.Sample {
	samples := make([]*encode.Sample, len(grid))
	rec.time("raal.fingerprint", parent, func() int {
		for _, res := range grid {
			_ = raal.PlanFingerprint(p, res)
		}
		return len(grid)
	})
	rec.time("encode.grid", parent, func() int {
		for j, res := range grid {
			samples[j] = enc.EncodePlan(p, res)
		}
		return len(grid)
	})
	return samples
}

func (w *adviseGrid) verify() error {
	same := make([]*raal.Plan, len(w.grid))
	for _, pk := range w.picks {
		for j := range same {
			same[j] = w.plans[pk.input]
		}
		costs, err := w.sv.cm.EstimateEachCtx(context.Background(), same, w.grid, raal.PredictOpts{})
		if err != nil {
			return err
		}
		if best := argmin(costs); best != pk.choice || !closeTo(pk.cost, costs[best], 1e-9) {
			return fmt.Errorf("plan %d: recommended allocation %d at %v, but EstimateEachCtx has allocation %d cheapest at %v",
				pk.input, pk.choice, pk.cost, best, costs[best])
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// offline_collect_train

// offline is the write side: one op collects a corpus (truth execution on
// the engine, pricing on the simulator) and trains a model on it (word2vec
// encoder fitting, forward and backward passes). Ops cycle through a fixed
// set of corpus seeds in an order the run's seed picks, so every cycle does
// the same work and the mean held-out error does not depend on how many ops
// fit in the run.
type offline struct {
	p     params
	sub   *substrate
	sys   *raal.System
	order []int     // corpus visited by op k is order[k % len(order)]
	re    []float64 // held-out RE per corpus, as TrainCostModel reported it
	pipe  *pipeline // from the latest traced op
	seed  int64
}

func (w *offline) clients() int { return 1 }
func (w *offline) cycle() int   { return w.p.offCorpora }

func (w *offline) setup(seed int64) (err error) {
	w.seed = seed
	if w.sub, err = newSubstrate(w.p.scale); err != nil {
		return err
	}
	if w.sys, err = raal.Open(raal.IMDB, w.p.scale, fixedSeed); err != nil {
		return err
	}
	w.order = rand.New(rand.NewSource(seed)).Perm(w.p.offCorpora)
	w.re = make([]float64, w.p.offCorpora)
	return warmUp(w, w.p.warmup[wlOffline])
}

func (w *offline) op(_, k int, rec *recorder) (time.Duration, error) {
	corpus := w.order[k%len(w.order)]
	corpusSeed := int64(1000 + corpus)
	if rec != nil {
		root := rec.startOp(k)
		defer rec.endOp(root)
		t := time.Now()
		pipe, err := runPipeline(rec, spanOp, w.sub.db, w.p.offQueries, w.p.offEpochs, corpusSeed)
		d := time.Since(t)
		if err != nil {
			return d, err
		}
		w.pipe = pipe
		if want := w.re[corpus]; want != 0 && pipe.heldRE != want {
			return d, fmt.Errorf("corpus %d: layer-by-layer pipeline held-out RE %v, TrainCostModel %v", corpus, pipe.heldRE, want)
		}
		return d, nil
	}
	t := time.Now()
	ds, err := w.sys.Collect(raal.CollectOptions{
		NumQueries: w.p.offQueries, PlansPerQuery: 3, ResStatesPerPlan: 3, Seed: corpusSeed,
	})
	var report *raal.TrainReport
	if err == nil {
		_, report, err = raal.TrainCostModel(ds, raal.RAAL(), raal.TrainOptions{Epochs: w.p.offEpochs})
	}
	d := time.Since(t)
	if err != nil {
		return d, fmt.Errorf("corpus %d: %w", corpus, err)
	}
	h := report.Held
	for _, v := range []float64{h.RE, h.MSE, h.COR, h.R2} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return d, fmt.Errorf("corpus %d: held-out metrics not finite: %v", corpus, h)
		}
	}
	if report.TestSamples < 1 {
		return d, fmt.Errorf("corpus %d: no held-out sample", corpus)
	}
	w.re[corpus] = h.RE
	return d, nil
}

func (w *offline) verify() error { return nil } // every report is checked as it arrives

func (w *offline) heldoutRE() float64 {
	sum := 0.0
	for _, re := range w.re {
		sum += re
	}
	return sum / float64(len(w.re))
}

func (w *offline) layerCounts(int) map[string]float64 { return nil }

func (w *offline) prepareTrace(*recorder) error { return nil } // each traced op builds its own pipeline

func (w *offline) probeInputs() (*pipeline, *substrate, []string, error) {
	if w.pipe == nil {
		return nil, nil, nil, errors.New("no traced op ran")
	}
	queries, err := w.sub.queries(w.seed, w.p.probeN, 1)
	return w.pipe, w.sub, queries, err
}

func (w *offline) close() {}
