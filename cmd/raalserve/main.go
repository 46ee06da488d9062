// Command raalserve exposes cost estimation over HTTP behind the full
// robustness stack (internal/serve): bounded admission, per-request
// deadlines, panic isolation, and graceful degradation to the GPSJ
// analytical estimator whenever the deep model fails.
//
// Usage:
//
//	raalserve -model model.raal                       # deep model + GPSJ fallback
//	raalserve                                         # analytical-only serving
//	raalserve -deadline 200ms -on-deadline fail       # 504 instead of fallback
//	raalserve -admin :8081 -pprof                     # admin listener + profiling
//	raalserve -route "http://10.0.0.7:8080,http://10.0.0.8:8080"
//	                                                  # fleet router over replicas
//	raalserve -fault-seed 42 -fault-error 0.2         # chaos drill: seeded faults
//
// The same binary runs as a replica (default) or, with -route, as the
// fleet front router (internal/fleet): consistent-hash affinity on the
// SQL text's token stream, one health state per replica fed by readyz
// probes and request outcomes, one attempt per replica with failover
// along the ring, and degradation to the local GPSJ estimate when no
// replica can answer.
//
// The -fault-* flags arm deterministic fault injection in the replica's
// deep path (serve.FaultConfig) for chaos drills: a fixed -fault-seed
// replays the exact same failure schedule run after run.
//
// Endpoints:
//
//	POST /estimate  {"sql": "...", "executors": 2, "cores": 2, "mem_mb": 4096}
//	POST /select    same body; prices candidate plans, returns the argmin
//	GET  /healthz   liveness
//	GET  /readyz    readiness (503 once draining or saturated)
//	GET  /fleetz    router only: live per-replica health state
//	GET  /cachez    encode-cache per-key hit attribution (requires -model)
//	GET  /metrics   Prometheus text exposition (serving + model telemetry)
//	GET  /models    online mode: model registry status (champion, shadow, history)
//	POST /models/promote | /models/rollback | /models/pin   registry admin
//
// With -online the replica closes the learning loop: each served deep
// estimate's (plan, resources) is replayed on the cluster simulator, the
// observed time feeds a replay reservoir and a rolling q-error drift
// detector, and a drift trigger retrains a challenger that shadow-scores
// against the champion before an atomic, zero-downtime promotion.
//
// The optional -admin listener serves /metrics (and, with -pprof, the
// net/http/pprof handlers under /debug/pprof/) on a separate address so
// operational surfaces can stay off the public port.
//
// SIGINT/SIGTERM starts a graceful shutdown: readiness flips, in-flight
// requests drain, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"raal"
	"raal/internal/fleet"
	"raal/internal/physical"
	"raal/internal/serve"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		adminAddr  = flag.String("admin", "", "admin listen address for /metrics and pprof (empty = no admin listener; /metrics stays on the main port)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the admin listener (requires -admin)")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		bench      = flag.String("bench", "imdb", "benchmark: imdb or tpch")
		scale      = flag.Float64("scale", 0.1, "synthetic data scale factor")
		seed       = flag.Int64("seed", 1, "global seed")
		modelPath  = flag.String("model", "", "trained cost model (raaltrain -out); empty serves GPSJ analytical estimates only")
		conc       = flag.Int("concurrency", 0, "max concurrent estimations (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "admission queue depth beyond the concurrency slots (429 when full)")
		deadline   = flag.Duration("deadline", 500*time.Millisecond, "per-request estimation budget (0 = none)")
		onDeadline = flag.String("on-deadline", "fallback", "deadline-miss policy: fallback (degrade to GPSJ) or fail (504)")
		candidates = flag.Int("max-candidates", 3, "candidate plans priced by /select")
		encCache   = flag.Int("encode-cache", 256, "feature-encoding LRU capacity in plans (0 disables; repeated plans skip re-encoding)")
		drainGrace = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")

		online         = flag.Bool("online", false, "close the learning loop: observe simulated execution times for served estimates, detect drift, retrain from a replay buffer, and hot-swap the champion (requires -model)")
		onlineDir      = flag.String("online-dir", "", "online: model snapshot registry directory (empty = keep generations in memory only)")
		replayCap      = flag.Int("replay-cap", 512, "online: replay reservoir capacity in samples")
		driftWindow    = flag.Int("drift-window", 64, "online: sliding window of served q-errors watched by the drift detector")
		driftThreshold = flag.Float64("drift-threshold", 2.0, "online: windowed q-error quantile value that dispatches a retrain")
		minRetrain     = flag.Int("min-retrain", 64, "online: minimum replay occupancy before a drift trigger may retrain")
		shadowMin      = flag.Int("shadow-min", 32, "online: feedback outcomes a challenger is shadow-scored on before the promote/reject verdict")
		retrainEpochs  = flag.Int("retrain-epochs", 10, "online: warm-start training epochs per challenger")

		route = flag.String("route", "", `run as the fleet router over comma-separated replicas ("[id=]url,..."); all estimation flags except the benchmark ones are ignored`)

		faultSeed     = flag.Int64("fault-seed", 1, "fault injection: seed for the deterministic failure schedule")
		faultPanic    = flag.Float64("fault-panic", 0, "fault injection: per-request probability the deep path panics")
		faultError    = flag.Float64("fault-error", 0, "fault injection: per-request probability the deep path errors")
		faultDelay    = flag.Float64("fault-delay", 0, "fault injection: per-request probability the deep path stalls")
		faultDelayDur = flag.Duration("fault-delay-dur", 50*time.Millisecond, "fault injection: stall duration for injected delays")
	)
	flag.Parse()

	logger, err := newLogger(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "raalserve: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	if *pprofOn && *adminAddr == "" {
		fatal("-pprof requires -admin (profiling is only served on the admin listener)")
	}

	if *route != "" {
		runRouter(logger, fatal, routerOpts{
			spec:       *route,
			addr:       *addr,
			bench:      *bench,
			scale:      *scale,
			seed:       *seed,
			candidates: *candidates,
			drainGrace: *drainGrace,
		})
		return
	}

	policy := serve.FallbackOnDeadline
	switch *onDeadline {
	case "fallback":
	case "fail":
		policy = serve.FailOnDeadline
	default:
		fatal("-on-deadline must be fallback or fail", "got", *onDeadline)
	}

	sys, err := raal.Open(raal.Benchmark(*bench), *scale, *seed)
	if err != nil {
		fatal("opening benchmark", "error", err)
	}
	gpsj := raal.NewGPSJBaseline()

	reg := telemetry.NewRegistry()
	met := serve.NewMetrics(reg)

	cfg := serve.Config{
		Fallback: func(_ context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
			return gpsj.Estimate(p, res), nil
		},
		Concurrency: *conc,
		QueueDepth:  *queue,
		Deadline:    *deadline,
		OnDeadline:  policy,
		Metrics:     met,
	}
	if *faultPanic > 0 || *faultError > 0 || *faultDelay > 0 {
		cfg.Faults = &serve.FaultConfig{
			Seed:      *faultSeed,
			PanicProb: *faultPanic,
			ErrorProb: *faultError,
			DelayProb: *faultDelay,
			Delay:     *faultDelayDur,
		}
		logger.Warn("fault injection armed — this replica will deliberately fail",
			"seed", *faultSeed, "panic_prob", *faultPanic, "error_prob", *faultError,
			"delay_prob", *faultDelay, "delay", *faultDelayDur)
	}
	var (
		cacheStats func() []serve.CacheKeyStats
		modelAdmin http.Handler
	)
	if *modelPath != "" {
		cm, st, err := loadModelOrCheckpoint(*modelPath)
		if err != nil {
			fatal("loading model", "error", err)
		}
		cm.Instrument(reg)
		cm.EnableEncodeCache(*encCache)
		if *encCache > 0 {
			cacheStats = func() []serve.CacheKeyStats {
				stats := cm.EncodeCacheKeyStats()
				out := make([]serve.CacheKeyStats, len(stats))
				for i, s := range stats {
					out[i] = serve.CacheKeyStats{Key: s.Key, Hits: s.Hits}
				}
				return out
			}
		}
		// The deep path scores with the cost model, or with the online
		// loop's champion, which also learns from every answer it serves.
		var est estimator = cm
		observe := func(*physical.Plan, sparksim.Resources, float64) {}
		if *online {
			osrv, err := raal.NewOnlineServing(cm, st, raal.OnlineOptions{
				Dir:            *onlineDir,
				ReplayCap:      *replayCap,
				DriftWindow:    *driftWindow,
				DriftThreshold: *driftThreshold,
				MinRetrain:     *minRetrain,
				ShadowMin:      *shadowMin,
				RetrainEpochs:  *retrainEpochs,
				Seed:           *seed,
				Metrics:        reg,
				Logger:         logger,
			})
			if err != nil {
				fatal("starting online learning", "error", err)
			}
			modelAdmin = osrv.AdminHandler()
			// Feedback loop: every deep answer's (plan, resources) is
			// re-executed on the cluster simulator — the substrate's ground
			// truth — and the observed time flows back into the learning
			// loop. One worker serializes both the simulator and the
			// manager; a full queue drops feedback rather than stalling
			// serving (learning is best-effort, answering is not).
			type outcome struct {
				plan *physical.Plan
				res  sparksim.Resources
				pred float64
			}
			feedback := make(chan outcome, 1024)
			go func() {
				for o := range feedback {
					actual, err := sys.Cost(o.plan, o.res)
					if err != nil {
						continue
					}
					osrv.Feedback(o.plan, o.res, o.pred, actual)
				}
			}()
			est = osrv
			observe = func(p *physical.Plan, res sparksim.Resources, pred float64) {
				select {
				case feedback <- outcome{plan: p, res: res, pred: pred}:
				default: // shed feedback under pressure, never block serving
				}
			}
			logger.Info("online learning armed",
				"variant", cm.Variant().Name, "model", *modelPath,
				"registry", *onlineDir, "replay_cap", *replayCap,
				"drift_window", *driftWindow, "drift_threshold", *driftThreshold,
				"champion", osrv.ChampionVersion())
		}
		cfg.Deep = func(ctx context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
			c, err := est.EstimateCtx(ctx, p, res)
			if err == nil {
				observe(p, res, c)
			}
			return c, err
		}
		cfg.DeepBatch = func(ctx context.Context, plans []*physical.Plan, res sparksim.Resources) ([]float64, error) {
			return est.EstimateBatchCtx(ctx, plans, res, raal.PredictOpts{})
		}
		logger.Info("serving deep model with GPSJ fallback armed",
			"variant", cm.Variant().Name, "model", *modelPath, "encode_cache", *encCache)
	} else {
		if *online {
			fatal("-online requires -model (there is no deep model to keep fresh)")
		}
		logger.Info("no -model given; serving GPSJ analytical estimates only")
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fatal("building server", "error", err)
	}

	// The planning substrate (parser → binder → planner → cardinality
	// estimator) is not concurrency-hardened, so serialize it; admission
	// control already bounds the expensive estimation stage.
	var planMu sync.Mutex
	handler, err := serve.NewHandler(srv, serve.HTTPConfig{
		Planner: func(sql string) ([]*physical.Plan, error) {
			planMu.Lock()
			defer planMu.Unlock()
			return sys.Plan(sql)
		},
		MaxCandidates: *candidates,
		Metrics:       met,
		Logger:        logger,
		CacheStats:    cacheStats,
		ModelAdmin:    modelAdmin,
	})
	if err != nil {
		fatal("building handler", "error", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		logger.Info("listening", "addr", *addr, "bench", *bench, "scale", *scale,
			"concurrency", *conc, "queue", *queue,
			"deadline", *deadline, "on_deadline", *onDeadline)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("listener failed", "error", err)
		}
	}()

	var adminSrv *http.Server
	if *adminAddr != "" {
		adminSrv = &http.Server{
			Addr:              *adminAddr,
			Handler:           adminHandler(reg, *pprofOn, modelAdmin),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("admin listening", "addr", *adminAddr, "pprof", *pprofOn)
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fatal("admin listener failed", "error", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sig := <-stop
	logger.Info("draining", "signal", sig.String(), "budget", *drainGrace)

	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := handler.Shutdown(ctx); err != nil {
		logger.Warn("drain", "error", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if adminSrv != nil {
		if err := adminSrv.Shutdown(ctx); err != nil {
			logger.Warn("admin shutdown", "error", err)
		}
	}
	logger.Info("stopped")
}

// routerOpts carries the flag subset the router mode consumes.
type routerOpts struct {
	spec       string
	addr       string
	bench      string
	scale      float64
	seed       int64
	candidates int
	drainGrace time.Duration
}

// runRouter is the -route mode: the same binary as the fleet front
// router. It routes on the SQL text and delegates planning and deep
// estimation to the replicas; its own benchmark database and planner are
// used only when every replica is down, to price the degraded answer.
func runRouter(logger *slog.Logger, fatal func(string, ...any), opts routerOpts) {
	replicas, err := parseReplicas(opts.spec)
	if err != nil {
		fatal("parsing -route", "error", err)
	}
	sys, err := raal.Open(raal.Benchmark(opts.bench), opts.scale, opts.seed)
	if err != nil {
		fatal("opening benchmark", "error", err)
	}
	gpsj := raal.NewGPSJBaseline()

	reg := telemetry.NewRegistry()
	ids := make([]string, len(replicas))
	for i, r := range replicas {
		ids[i] = r.ID
	}
	met := fleet.NewMetrics(reg, ids)

	var planMu sync.Mutex
	router, err := fleet.New(fleet.Config{
		Replicas: replicas,
		Planner: func(sql string) ([]*physical.Plan, error) {
			planMu.Lock()
			defer planMu.Unlock()
			return sys.Plan(sql)
		},
		Fallback: func(_ context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
			return gpsj.Estimate(p, res), nil
		},
		MaxCandidates: opts.candidates,
		Metrics:       met,
		Logger:        logger,
	})
	if err != nil {
		fatal("building router", "error", err)
	}

	httpSrv := &http.Server{
		Addr:              opts.addr,
		Handler:           router,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		logger.Info("routing", "addr", opts.addr, "replicas", len(replicas))
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("listener failed", "error", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sig := <-stop
	logger.Info("router stopping", "signal", sig.String())

	ctx, cancel := context.WithTimeout(context.Background(), opts.drainGrace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	router.Close()
	logger.Info("stopped")
}

// parseReplicas parses the -route spec: comma-separated entries, each
// "id=url" or a bare url (IDs default to r0, r1, ...).
func parseReplicas(spec string) ([]fleet.Replica, error) {
	var out []fleet.Replica
	for i, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, url := fmt.Sprintf("r%d", i), entry
		if eq := strings.Index(entry, "="); eq > 0 && !strings.Contains(entry[:eq], "/") {
			id, url = entry[:eq], entry[eq+1:]
		}
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		out = append(out, fleet.Replica{ID: id, URL: strings.TrimSuffix(url, "/")})
	}
	if len(out) == 0 {
		return nil, errors.New("-route needs at least one replica url")
	}
	return out, nil
}

// newLogger builds the process logger at the requested verbosity.
func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level must be debug, info, warn, or error, got %q", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// loadModelOrCheckpoint opens path as either a resumable checkpoint
// (raaltrain -checkpoint) or a bare model file (raaltrain -out). A
// checkpoint additionally yields the optimizer/shuffle state, which lets
// -online warm-start challengers exactly where training left off; a bare
// model starts online training state from scratch.
func loadModelOrCheckpoint(path string) (*raal.CostModel, *raal.TrainState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if cm, st, err := raal.LoadCheckpoint(f); err == nil {
		return cm, st, nil
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, nil, err
	}
	cm, err := raal.LoadCostModel(f)
	return cm, nil, err
}

// adminHandler serves the operational surfaces: /metrics always, the
// pprof handlers only when explicitly enabled (profiles expose internals
// and cost CPU, so they are opt-in rather than ambient), and the model
// registry admin surface when online learning is armed.
func adminHandler(reg *telemetry.Registry, pprofOn bool, modelAdmin http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	if modelAdmin != nil {
		mux.Handle("/models", modelAdmin)
		mux.Handle("/models/", modelAdmin)
	}
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	}
	return mux
}

// estimator is what raalserve's deep path scores with: *raal.CostModel and
// *raal.OnlineServing both provide it.
type estimator interface {
	EstimateCtx(ctx context.Context, p *physical.Plan, res sparksim.Resources) (float64, error)
	EstimateBatchCtx(ctx context.Context, plans []*physical.Plan, res sparksim.Resources, opt raal.PredictOpts) ([]float64, error)
}
