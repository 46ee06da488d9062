// Package fleet scales raalserve past one process: a front router that
// consistent-hashes each request's SQL token stream (not its allocation)
// onto a fleet of replicas, so a hot query keeps landing on the replica
// whose encode cache already holds its plan. The router never plans a
// request it can proxy — the answering replica does, once — and wraps
// the affinity in the robustness stack production traffic needs:
//
//   - one failure detector per replica — a hysteresis state machine
//     (healthy → suspect → down → recovered) fed by two inputs: readyz
//     probes on an interval, and the outcomes of the requests the router
//     proxies. A blip does not move keys off their warm replica, a dead
//     process stops receiving traffic within a few probes, and one that
//     answers probes but fails requests within a few requests;
//   - one forwarding chain — each request walks its key's routable ring
//     candidates from the owner, one attempt per replica bounded by
//     AttemptTimeout, and the first definitive answer wins; a failed or
//     shedding (429/503) replica fails over to the next ring position;
//   - graceful degradation — when no replica can answer, the router
//     plans the query itself, prices it with the analytical fallback and
//     tags the response degraded:true, so callers always get an answer,
//     a typed error, or a cancellation — never a hang.
//
// The same binary serves as router or replica (raalserve -route).
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"raal/internal/metrics"
	"raal/internal/physical"
	"raal/internal/serve"
	"raal/internal/sparksim"
	"raal/internal/sql"
)

// Typed failure modes, matched with errors.Is.
var (
	// ErrNoReplicas: every replica for the key is down; with a fallback
	// configured the caller gets a degraded answer instead of this error.
	ErrNoReplicas = errors.New("fleet: no routable replica")
	// ErrAllFailed: every routable replica was tried and failed.
	ErrAllFailed = errors.New("fleet: every replica attempt failed")
	// ErrScheme: a replica URL whose scheme is not http. Replicas serve
	// plain HTTP only.
	ErrScheme = errors.New("fleet: replica URL scheme is not http")
)

// Replica names one backend raalserve process.
type Replica struct {
	// ID labels the replica in metrics and logs (must be unique).
	ID string
	// URL is the replica's base URL, e.g. "http://10.0.0.7:8080"; the
	// scheme must be http.
	URL string
}

// Deprecated: ignored; the affinity key is sql.CanonicalKey of the request's SQL.
type FingerprintFunc func(p *physical.Plan, res sparksim.Resources) string

// Config wires a Router.
type Config struct {
	// Replicas is the fleet membership (required, at least one).
	Replicas []Replica
	// Planner maps request SQL to candidate plans (required). Used only
	// by the degrade path, after every replica has failed.
	Planner serve.PlanFunc
	// Deprecated: ignored.
	Fingerprint FingerprintFunc
	// Fallback prices one plan analytically when every replica is down
	// (the degrade ladder's last rung). Nil disables degradation: total
	// replica failure becomes a typed 503.
	Fallback serve.EstimateFunc
	// DefaultRes seeds each request's allocation; zero means
	// sparksim.DefaultResources(). Should match the replicas' default so
	// a degraded answer prices the allocation a replica would have.
	DefaultRes sparksim.Resources
	// MaxCandidates caps the degrade path's /select pricing (default 3).
	MaxCandidates int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64

	// Vnodes is the virtual-node count per replica (default 64).
	Vnodes int

	// HealthInterval is the readyz probe period (default 250ms);
	// ProbeTimeout bounds each probe (default HealthInterval).
	HealthInterval time.Duration
	ProbeTimeout   time.Duration

	// AttemptTimeout bounds each replica's one attempt so a stalled
	// replica cannot pin the failover chain (default 2s).
	AttemptTimeout time.Duration

	// Deprecated: ignored; the router draws no random numbers.
	Seed int64

	// Metrics receives routing telemetry; nil routes unobserved. When it
	// carries a registry, the router serves GET /metrics.
	Metrics *Metrics
	// Logger receives health transitions; nil discards them.
	Logger *slog.Logger
}

// replicaRT is one replica's runtime state.
type replicaRT struct {
	id     string
	url    string
	health *healthFSM
	// hop carries every proxied attempt and probe; post (by endpoint
	// name) and readyz are the prepared requests it sends.
	hop    *hop
	post   map[string]*request
	readyz *request
}

// proxied names the endpoints the router forwards to its replicas.
var proxied = []string{"estimate", "select"}

// newReplicaRT parses r's URL and prepares its requests.
func newReplicaRT(r Replica) (*replicaRT, error) {
	base, err := url.Parse(r.URL)
	if err != nil {
		return nil, err
	}
	if base.Scheme != "http" {
		return nil, fmt.Errorf("%w: %q", ErrScheme, r.URL)
	}
	if base.Host == "" {
		return nil, fmt.Errorf("fleet: replica URL %q has no host", r.URL)
	}
	port := base.Port()
	if port == "" {
		port = "80"
	}
	rep := &replicaRT{
		id:     r.ID,
		url:    r.URL,
		health: newHealthFSM(),
		hop:    &hop{addr: net.JoinHostPort(base.Hostname(), port)},
		post:   make(map[string]*request, len(proxied)),
	}
	if rep.readyz, err = newRequest("Get", r.URL+"/readyz", ""); err != nil {
		return nil, err
	}
	for _, endpoint := range proxied {
		if rep.post[endpoint], err = newRequest("Post", r.URL+"/"+endpoint, "Content-Type: application/json\r\n"); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// Router is the fleet front-end. Create with New, serve it like any
// http.Handler, and Close it to stop the health checkers.
type Router struct {
	cfg      Config
	ring     *ring
	replicas map[string]*replicaRT
	byIndex  []*replicaRT
	met      *Metrics
	log      *slog.Logger
	mux      *http.ServeMux

	stop chan struct{}
	wg   sync.WaitGroup
}

// New validates cfg, builds the router, and starts the health checkers
// (stop them with Close).
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("fleet: config needs at least one replica")
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, r := range cfg.Replicas {
		if r.ID == "" || r.URL == "" {
			return nil, fmt.Errorf("fleet: replica needs both ID and URL, got %+v", r)
		}
		if seen[r.ID] {
			return nil, fmt.Errorf("fleet: duplicate replica ID %q", r.ID)
		}
		seen[r.ID] = true
	}
	if cfg.Planner == nil {
		return nil, errors.New("fleet: Config.Planner is required")
	}
	if cfg.DefaultRes == (sparksim.Resources{}) {
		cfg.DefaultRes = sparksim.DefaultResources()
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = 3
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 250 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.HealthInterval
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 2 * time.Second
	}
	met := cfg.Metrics
	if met == nil {
		met = &Metrics{}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(serve.DiscardHandler)
	}
	rt := &Router{
		cfg:      cfg,
		replicas: make(map[string]*replicaRT, len(cfg.Replicas)),
		met:      met,
		log:      logger,
		stop:     make(chan struct{}),
	}
	ids := make([]string, len(cfg.Replicas))
	for i, r := range cfg.Replicas {
		ids[i] = r.ID
		rep, err := newReplicaRT(r)
		if err != nil {
			return nil, fmt.Errorf("fleet: replica %s: %w", r.ID, err)
		}
		rt.replicas[r.ID] = rep
		rt.byIndex = append(rt.byIndex, rep)
		met.ReplicaState.With(r.ID).Set(float64(Healthy))
		met.ReplicaUp.With(r.ID).Set(1)
	}
	rt.ring = newRing(ids, cfg.Vnodes)

	rt.mux = http.NewServeMux()
	for _, endpoint := range proxied {
		rt.mux.HandleFunc("POST /"+endpoint, rt.proxyHandler(endpoint))
	}
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /fleetz", rt.handleFleetz)
	if reg := met.Registry(); reg != nil {
		rt.mux.Handle("GET /metrics", reg.Handler())
	}

	for _, rep := range rt.byIndex {
		rt.wg.Add(1)
		go rt.probeLoop(rep)
	}
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Close stops the health checkers and closes idle replica connections.
// In-flight proxied requests finish on their own contexts, and their
// connections are closed when they do.
func (rt *Router) Close() {
	select {
	case <-rt.stop:
		return // already closed
	default:
	}
	close(rt.stop)
	rt.wg.Wait()
	for _, rep := range rt.byIndex {
		rep.hop.close()
	}
}

// ---------------------------------------------------------------------------
// Health checking

// probeLoop checks one replica on every HealthInterval tick.
func (rt *Router) probeLoop(rep *replicaRT) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		rt.check(rep)
	}
}

// check probes rep once and folds the outcome into its health state.
func (rt *Router) check(rep *replicaRT) {
	ok := rt.probe(rep)
	if !ok {
		rt.met.ProbeFailures.With(rep.id).Inc()
	}
	rt.observe(rep, ok)
}

// observe folds one outcome of rep — a readyz probe or a proxied
// attempt — into its health state, and on a transition updates the
// state gauges and logs it. The gauges are set under the state's lock,
// so they always end on the current state; the log line, which runs the
// caller's handler, is written after it is released. A success on a
// Healthy replica, the common case, returns at once.
func (rt *Router) observe(rep *replicaRT, ok bool) {
	h := rep.health
	if ok && h.State() == Healthy {
		return
	}
	h.mu.Lock()
	prev, cur := h.observe(ok)
	if cur == prev {
		h.mu.Unlock()
		return
	}
	rt.met.ReplicaState.With(rep.id).Set(float64(cur))
	if prev.Routable() != cur.Routable() {
		rt.met.Rebalances.Inc()
		up := 0.0
		if cur.Routable() {
			up = 1
		}
		rt.met.ReplicaUp.With(rep.id).Set(up)
	}
	h.mu.Unlock()
	rt.log.LogAttrs(context.Background(), slog.LevelInfo, "replica health transition",
		slog.String("replica", rep.id),
		slog.String("from", prev.String()),
		slog.String("to", cur.String()))
}

// probe hits the replica's readyz once; only a 200 counts (a saturated
// or draining replica answers 503 and is treated as unhealthy, which is
// exactly the load-aware routing the readyz contract promises).
func (rt *Router) probe(rep *replicaRT) bool {
	status, _, err := rep.hop.do(context.Background(), rt.cfg.ProbeTimeout, rep.readyz, nil, rt.cfg.MaxBodyBytes)
	return err == nil && status == http.StatusOK
}

// ---------------------------------------------------------------------------
// Request path

// proxyHandler validates the request envelope, forwards the raw body
// along the ring from the SQL text's owner, and falls back to the local
// analytical estimate when the fleet cannot answer.
func (rt *Router) proxyHandler(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rt.met.Requests.With(endpoint).Inc()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		rt.handleProxy(sw, r, endpoint)
		rt.met.Responses.With(strconv.Itoa(sw.code)).Inc()
		if sw.code < 400 {
			rt.met.RouteLatency.Observe(time.Since(start).Seconds())
		}
	}
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request, endpoint string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, serve.ErrorResponse{
				Error: fmt.Sprintf("request body exceeds %d byte limit", tooLarge.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	var req serve.EstimateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: `missing "sql"`})
		return
	}
	res, err := req.Resources(rt.cfg.DefaultRes)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error()})
		return
	}
	key, err := affinityKey(req.SQL)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error()})
		return
	}

	out := rt.forward(r.Context(), endpoint, body, key)
	if out.err != nil {
		if cerr := r.Context().Err(); cerr != nil {
			writeJSON(w, http.StatusRequestTimeout, serve.ErrorResponse{Error: cerr.Error()})
			return
		}
		rt.degrade(w, endpoint, req.SQL, res, out.err)
		return
	}
	rt.met.Proxied.With(out.replica).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Raal-Replica", out.replica)
	w.WriteHeader(out.status)
	w.Write(out.body)
}

// affinityKey is a request's ring key: its SQL token stream, so spacing
// and keyword case do not split a query across replicas. The allocation
// is left out because a replica's encode-cache entry is per plan. It
// fails only on text the lexer rejects, with the parser's error.
func affinityKey(query string) (string, error) { return sql.CanonicalKey(query) }

// degrade is the ladder's last rung: plan the query locally, price it
// with the analytical fallback (finite costs only) and tag the answer
// degraded. Without a fallback it is a typed 503 and nothing is planned.
func (rt *Router) degrade(w http.ResponseWriter, endpoint, query string, res sparksim.Resources, cause error) {
	if rt.cfg.Fallback == nil {
		writeJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{
			Error: fmt.Sprintf("fleet: no replica available and no fallback: %v", cause)})
		return
	}
	plans, err := rt.cfg.Planner(query)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error()})
		return
	}
	if len(plans) == 0 {
		writeJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: "no plan for query"})
		return
	}
	cands := plans[:1]
	if endpoint == "select" {
		cands = plans
		if len(cands) > rt.cfg.MaxCandidates {
			cands = cands[:rt.cfg.MaxCandidates]
		}
	}
	costs := make([]float64, len(cands))
	for i, p := range cands {
		c, err := rt.cfg.Fallback(context.Background(), p, res)
		if err != nil {
			writeJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{
				Error: fmt.Sprintf("fleet: no replica available and fallback failed: %v (cause: %v)", err, cause)})
			return
		}
		costs[i] = c
	}
	best := metrics.ArgminFinite(costs)
	if best < 0 {
		writeJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{Error: fmt.Sprintf(
			"fleet: no replica available and fallback failed: no finite cost among %d plan(s) (cause: %v)", len(cands), cause)})
		return
	}
	rt.met.Degraded.Inc()
	reason := cause.Error()
	if !strings.HasPrefix(reason, "fleet:") {
		reason = "fleet: " + reason
	}
	writeJSON(w, http.StatusOK, serve.EstimateResponse{
		CostSec: costs[best], Source: "fallback", Degraded: true,
		Reason:  reason,
		PlanSig: cands[best].Sig, PlanIndex: best, Candidates: len(cands),
	})
}

// attemptOut carries one forwarding chain's terminal result.
type attemptOut struct {
	status  int
	body    []byte
	replica string
	err     error // non-nil when no definitive response was obtained
}

// forward is the request's one forwarding chain: it walks the key's ring
// order from the owner, gives each routable replica one attempt bounded by
// AttemptTimeout, and returns the first definitive response. Routability
// is read as the walk reaches each replica, so one whose failures took it
// out of rotation meanwhile is skipped. 2xx, 3xx and client-error 4xx
// are definitive and count as a success for the replica's health;
// connection errors, malformed or oversized answers and 5xx count as a
// failure and fail over; 429/503 (saturated/draining — load states, not
// breakage) fail over and count as neither.
func (rt *Router) forward(ctx context.Context, endpoint string, body []byte, key string) attemptOut {
	var lastErr error
	for _, id := range rt.ring.Order(key) {
		rep := rt.replicas[id]
		if !rep.health.State().Routable() {
			continue
		}
		if lastErr != nil {
			rt.met.Failovers.Inc()
		}
		// A 3xx is relayed like any other answer, not followed. A body
		// over MaxBodyBytes fails the attempt: relaying its first
		// MaxBodyBytes would pass a cut JSON body off as the answer.
		status, respBody, err := rep.hop.do(ctx, rt.cfg.AttemptTimeout, rep.post[endpoint], body, rt.cfg.MaxBodyBytes)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return attemptOut{err: ctx.Err()}
			}
			rt.observe(rep, false)
			lastErr = fmt.Errorf("replica %s: %w", rep.id, err)
		case status < 400 || status == http.StatusBadRequest ||
			status == http.StatusRequestEntityTooLarge || status == http.StatusNotFound:
			// An answer, or a definitive client error relayed as-is:
			// either way the replica answered correctly.
			rt.observe(rep, true)
			return attemptOut{status: status, body: respBody, replica: rep.id}
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			// Saturated or draining: shed to the next ring position.
			// Not a breakage signal — the probes absorb a sustained
			// 503 through readyz.
			lastErr = fmt.Errorf("replica %s: HTTP %d", rep.id, status)
		default: // 5xx: the replica is misbehaving
			rt.observe(rep, false)
			lastErr = fmt.Errorf("replica %s: HTTP %d", rep.id, status)
		}
	}
	if lastErr == nil {
		return attemptOut{err: ErrNoReplicas}
	}
	return attemptOut{err: fmt.Errorf("%w: %v", ErrAllFailed, lastErr)}
}

// ---------------------------------------------------------------------------
// Operational surfaces

// handleReadyz: the router is ready while it can answer somehow — at
// least one routable replica, or the local fallback.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	routable := 0
	for _, rep := range rt.byIndex {
		if rep.health.State().Routable() {
			routable++
		}
	}
	if routable > 0 || rt.cfg.Fallback != nil {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "ready (%d/%d replicas routable)\n", routable, len(rt.byIndex))
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "no routable replica and no fallback")
}

// fleetzReplica is one row of the /fleetz state dump.
type fleetzReplica struct {
	ID     string `json:"id"`
	URL    string `json:"url"`
	Health string `json:"health"`
}

// handleFleetz dumps the live membership view for operators.
func (rt *Router) handleFleetz(w http.ResponseWriter, _ *http.Request) {
	out := make([]fleetzReplica, len(rt.byIndex))
	for i, rep := range rt.byIndex {
		out[i] = fleetzReplica{
			ID:     rep.id,
			URL:    rep.url,
			Health: rep.health.State().String(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
