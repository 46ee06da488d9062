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
//	raalserve -model model.raal -online               # close the learning loop
//	raalserve -route "http://10.0.0.7:8080,http://10.0.0.8:8080"
//	                                                  # fleet router over replicas
//
// The same binary runs as a replica (default) or, with -route, as the
// fleet front router (internal/fleet): consistent-hash affinity on the
// SQL text's token stream, one health state per replica fed by readyz
// probes and request outcomes, one attempt per replica with failover
// along the ring, and degradation to the local GPSJ estimate when no
// replica can answer. The router reads -addr, -bench, -scale, -seed,
// -max-candidates, -drain and -log-level; a replica-only flag (-model,
// -online, -online-dir, -encode-cache, -concurrency, -queue, -deadline,
// -on-deadline, -admin, -pprof) given with -route is an error.
//
// Chaos drills arm fault injection in process (serve.FaultConfig, as the
// internal/fleet chaos suite does); the binary has no fault flags.
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
// against the champion before an atomic, zero-downtime promotion. The
// loop runs on online.Config's defaults.
//
// The optional -admin listener serves /metrics (and, with -pprof, the
// net/http/pprof handlers under /debug/pprof/) on a separate address so
// operational surfaces can stay off the public port.
//
// SIGINT/SIGTERM starts a graceful shutdown: readiness flips, in-flight
// requests drain within -drain, then the listeners close. A listener
// that fails drains the rest the same way and exits non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "raalserve:", err)
		os.Exit(1)
	}
}

// replicaOnly names the flags that configure a replica's own estimation
// and listeners; the router reads none of them.
var replicaOnly = []string{"model", "online", "online-dir", "encode-cache", "concurrency", "queue", "deadline", "on-deadline", "admin", "pprof"}

// run is the command: it serves until ctx ends, then drains within
// -drain. Every failure, a listener's included, is its returned error.
// Logs go to stderr; nothing is written to stdout.
func run(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := flag.NewFlagSet("raalserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		adminAddr  = fs.String("admin", "", "admin listen address for /metrics and pprof (empty = no admin listener; /metrics stays on the main port)")
		pprofOn    = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the admin listener (requires -admin)")
		logLevel   = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		bench      = fs.String("bench", "imdb", "benchmark: imdb or tpch")
		scale      = fs.Float64("scale", 0.1, "synthetic data scale factor")
		seed       = fs.Int64("seed", 1, "global seed")
		modelPath  = fs.String("model", "", "trained cost model (raaltrain -out); empty serves GPSJ analytical estimates only")
		conc       = fs.Int("concurrency", 0, "max concurrent estimations (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 64, "admission queue depth beyond the concurrency slots (429 when full)")
		deadline   = fs.Duration("deadline", 500*time.Millisecond, "per-request estimation budget (0 = none)")
		onDeadline = fs.String("on-deadline", "fallback", "deadline-miss policy: fallback (degrade to GPSJ) or fail (504)")
		candidates = fs.Int("max-candidates", 3, "candidate plans priced by /select")
		encCache   = fs.Int("encode-cache", 256, "feature-encoding LRU capacity in plans (0 disables; repeated plans skip re-encoding)")
		drainGrace = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		online     = fs.Bool("online", false, "close the learning loop: observe simulated execution times for served estimates, detect drift, retrain from a replay buffer, and hot-swap the champion (requires -model)")
		onlineDir  = fs.String("online-dir", "", "online: model snapshot registry directory (empty = keep generations in memory only)")
		route      = fs.String("route", "", `run as the fleet router over comma-separated replicas ("[id=]url,..."); the replica-only flags are refused`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	logger, err := newLogger(*logLevel, stderr)
	if err != nil {
		return err
	}
	var replicas []fleet.Replica
	if set["route"] {
		for _, name := range replicaOnly {
			if set[name] {
				return fmt.Errorf("-%s configures a replica; the -route router does not read it", name)
			}
		}
		if replicas, err = parseReplicas(*route); err != nil {
			return err
		}
	}
	if *pprofOn && *adminAddr == "" {
		return errors.New("-pprof requires -admin (profiling is only served on the admin listener)")
	}
	if *online && *modelPath == "" {
		return errors.New("-online requires -model (there is no deep model to keep fresh)")
	}
	policy := serve.FallbackOnDeadline
	switch *onDeadline {
	case "fallback":
	case "fail":
		policy = serve.FailOnDeadline
	default:
		return fmt.Errorf("-on-deadline must be fallback or fail, got %q", *onDeadline)
	}

	sys, err := raal.Open(raal.Benchmark(*bench), *scale, *seed)
	if err != nil {
		return fmt.Errorf("opening benchmark: %w", err)
	}
	// The planning substrate (parser → binder → planner → cardinality
	// estimator) is not concurrency-hardened, so serialize it; admission
	// control already bounds the expensive estimation stage.
	var planMu sync.Mutex
	planner := func(sql string) ([]*physical.Plan, error) {
		planMu.Lock()
		defer planMu.Unlock()
		return sys.Plan(sql)
	}
	gpsj := raal.NewGPSJBaseline()
	fallback := func(_ context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
		return gpsj.Estimate(p, res), nil
	}
	reg := telemetry.NewRegistry()

	// The router routes on the SQL text and delegates planning and deep
	// estimation to the replicas; its own planner and GPSJ price only the
	// degraded answer when every replica is down.
	if replicas != nil {
		ids := make([]string, len(replicas))
		for i, r := range replicas {
			ids[i] = r.ID
		}
		router, err := fleet.New(fleet.Config{
			Replicas:      replicas,
			Planner:       planner,
			Fallback:      fallback,
			MaxCandidates: *candidates,
			Metrics:       fleet.NewMetrics(reg, ids),
			Logger:        logger,
		})
		if err != nil {
			return fmt.Errorf("building router: %w", err)
		}
		defer router.Close()
		logger.Info("routing", "replicas", len(replicas), "bench", *bench, "scale", *scale)
		return serveUntil(ctx, logger, *drainGrace, nil, surface{"listening", *addr, router})
	}

	met := serve.NewMetrics(reg)
	cfg := serve.Config{
		Fallback:    fallback,
		Concurrency: *conc,
		QueueDepth:  *queue,
		Deadline:    *deadline,
		OnDeadline:  policy,
		Metrics:     met,
	}
	var (
		cacheStats func() []serve.CacheKeyStats
		modelAdmin http.Handler
	)
	if *modelPath != "" {
		cm, st, err := loadModelOrCheckpoint(*modelPath)
		if err != nil {
			return fmt.Errorf("loading model: %w", err)
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
				Dir:     *onlineDir,
				Seed:    *seed,
				Metrics: reg,
				Logger:  logger,
			})
			if err != nil {
				return fmt.Errorf("starting online learning: %w", err)
			}
			modelAdmin = osrv.AdminHandler()
			var stopFeedback func()
			observe, stopFeedback = startFeedback(sys, osrv)
			// Deferred, so it runs once serveUntil has drained the
			// listeners: no request is left to offer feedback.
			defer stopFeedback()
			est = osrv
			logger.Info("online learning armed",
				"variant", cm.Variant().Name, "model", *modelPath,
				"registry", *onlineDir, "champion", osrv.ChampionVersion())
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
		logger.Info("no -model given; serving GPSJ analytical estimates only")
	}

	srv, err := serve.New(cfg)
	if err != nil {
		return fmt.Errorf("building server: %w", err)
	}
	handler, err := serve.NewHandler(srv, serve.HTTPConfig{
		Planner:       planner,
		MaxCandidates: *candidates,
		Metrics:       met,
		Logger:        logger,
		CacheStats:    cacheStats,
		ModelAdmin:    modelAdmin,
	})
	if err != nil {
		return fmt.Errorf("building handler: %w", err)
	}
	surfaces := []surface{{"listening", *addr, handler}}
	if *adminAddr != "" {
		surfaces = append(surfaces, surface{"admin listening", *adminAddr, adminHandler(reg, *pprofOn, modelAdmin)})
	}
	logger.Info("replica", "bench", *bench, "scale", *scale,
		"concurrency", *conc, "queue", *queue,
		"deadline", *deadline, "on_deadline", *onDeadline, "pprof", *pprofOn)
	return serveUntil(ctx, logger, *drainGrace, handler.Shutdown, surfaces...)
}

// surface is one HTTP listener: a handler on an address, logged under
// name with the address it bound (so ":0" reports its port).
type surface struct {
	name, addr string
	handler    http.Handler
}

// serveUntil binds every surface and serves them until ctx ends or one
// of them fails, then drains: drain (if non-nil) and each server's
// Shutdown share one grace budget. It returns nil after a cancelled ctx
// and the error of a bind or listener that failed.
func serveUntil(ctx context.Context, logger *slog.Logger, grace time.Duration, drain func(context.Context) error, surfaces ...surface) error {
	lns := make([]net.Listener, 0, len(surfaces))
	for _, s := range surfaces {
		ln, err := net.Listen("tcp", s.addr)
		if err != nil {
			for _, ln := range lns {
				ln.Close()
			}
			return err
		}
		lns = append(lns, ln)
	}
	servers := make([]*http.Server, len(lns))
	errc := make(chan error, len(lns))
	for i, ln := range lns {
		servers[i] = &http.Server{Handler: surfaces[i].handler, ReadHeaderTimeout: 5 * time.Second}
		logger.Info(surfaces[i].name, "addr", ln.Addr().String())
		go func() { errc <- servers[i].Serve(ln) }()
	}

	var err error
	running := len(servers)
	select {
	case <-ctx.Done():
		logger.Info("draining", "budget", grace)
	case err = <-errc:
		running--
		logger.Error("listener failed; draining", "error", err, "budget", grace)
	}
	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if drain != nil {
		// The handler logs an abandoned drain itself.
		_ = drain(dctx)
	}
	for _, s := range servers {
		if serr := s.Shutdown(dctx); serr != nil {
			logger.Warn("http shutdown", "error", serr)
		}
	}
	for ; running > 0; running-- {
		<-errc // Serve returns ErrServerClosed once Shutdown starts
	}
	logger.Info("stopped")
	return err
}

// startFeedback runs the online loop's feedback worker: every deep
// answer's (plan, resources) is re-executed on the cluster simulator —
// the substrate's ground truth — and the observed time flows back into
// the loop. One worker serializes both the simulator and the manager; a
// full queue drops feedback rather than stalling serving (learning is
// best-effort, answering is not). stop ends the worker and waits for
// it. It closes a quit channel, not the queue: a handler still running
// past a missed drain budget may offer one more outcome, which must
// land in the queue rather than on a closed channel.
func startFeedback(sys *raal.System, osrv *raal.OnlineServing) (observe func(*physical.Plan, sparksim.Resources, float64), stop func()) {
	type outcome struct {
		plan *physical.Plan
		res  sparksim.Resources
		pred float64
	}
	feedback := make(chan outcome, 1024)
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case o := <-feedback:
				if actual, err := sys.Cost(o.plan, o.res); err == nil {
					osrv.Feedback(o.plan, o.res, o.pred, actual)
				}
			}
		}
	}()
	observe = func(p *physical.Plan, res sparksim.Resources, pred float64) {
		select {
		case feedback <- outcome{plan: p, res: res, pred: pred}:
		default: // shed feedback under pressure, never block serving
		}
	}
	return observe, func() { close(quit); <-done }
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
func newLogger(level string, w io.Writer) (*slog.Logger, error) {
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
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: lv})), nil
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
