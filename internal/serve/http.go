package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"raal/internal/lru"
	"raal/internal/physical"
	"raal/internal/sparksim"
	"raal/internal/sql"
)

// PlanFunc turns a SQL query into candidate physical plans (in practice
// raal.System.Plan). Errors are treated as client errors (HTTP 400): on
// this substrate planning fails only on unparsable SQL or unknown
// tables/columns.
type PlanFunc func(sql string) ([]*physical.Plan, error)

// planMemoCap bounds the Handler's SQL-keyed plan entry. It is
// raalserve's -encode-cache default, so the two LRUs cover one working
// set: a query whose plans are kept here finds their encodings there.
const planMemoCap = 256

// HTTPConfig wires the HTTP front-end.
type HTTPConfig struct {
	// Planner maps request SQL to candidate plans (required). It must be a
	// pure function of sql.CanonicalKey(sql): the handler keeps its answer
	// per key and calls it again only on a miss (see Handler.plan).
	Planner PlanFunc
	// DefaultRes seeds each request's allocation; per-request fields
	// override it. Zero value means sparksim.DefaultResources().
	DefaultRes sparksim.Resources
	// MaxCandidates caps how many candidate plans /select prices
	// (default 3, matching System.SelectPlan).
	MaxCandidates int
	// MaxBodyBytes bounds request bodies (default 1 MiB) — oversized
	// payloads are rejected with a typed 413 before JSON decoding.
	MaxBodyBytes int64
	// Metrics is the serving metric set (normally the Server's). When it
	// carries a registry, the handler also exposes GET /metrics in the
	// Prometheus text format. Nil serves unobserved.
	Metrics *Metrics
	// Logger receives structured request and lifecycle logs; nil
	// discards them before they are formatted.
	Logger *slog.Logger
	// CacheStats, if non-nil, exposes the replica's encode-cache per-key
	// hit attribution as GET /cachez — the fleet benchmark correlates
	// these keys with what it routed to measure affinity effectiveness.
	CacheStats func() []CacheKeyStats
	// ModelAdmin, if non-nil, is mounted at /models (and /models/...):
	// the online-learning admin surface (list, promote, rollback, pin).
	ModelAdmin http.Handler
}

// CacheKeyStats is one encode-cache entry's hit attribution as served by
// GET /cachez: the short fingerprint ID of the cached plan (entries are
// per plan; its allocations share one) and how many lookups that entry
// has served. Mirrors the raal package's type so the replica and its
// clients agree on the wire shape without the serving layer importing the
// public package.
type CacheKeyStats struct {
	Key  string `json:"key"`
	Hits uint64 `json:"hits"`
}

// CacheStatsResponse is the JSON body of GET /cachez.
type CacheStatsResponse struct {
	Keys []CacheKeyStats `json:"keys"`
}

// Handler is the HTTP surface over a Server: estimation endpoints plus
// the liveness/readiness pair every load balancer expects.
//
//	POST /estimate  {"sql": ...}   → price the default (first) plan
//	POST /select    {"sql": ...}   → price candidates, return the argmin
//	GET  /healthz                  → 200 while the process lives
//	GET  /readyz                   → 200 while admitting; 503 once draining
//	GET  /metrics                  → Prometheus text exposition (when a
//	                                 Metrics registry is configured)
//	GET  /cachez                   → encode-cache per-key hit attribution
//	                                 (when CacheStats is configured)
//	/models, /models/...           → online-learning admin surface (when
//	                                 ModelAdmin is configured)
type Handler struct {
	srv   *Server
	cfg   HTTPConfig
	log   *slog.Logger
	mux   *http.ServeMux
	ready atomic.Bool

	memoMu sync.Mutex
	memo   *lru.Cache[string, []*physical.Plan] // canonical SQL → Planner's answer
}

// DiscardHandler is a slog.Handler that is never enabled, so a discarded
// log line is dropped before its attributes are formatted. (Go 1.24 has
// slog.DiscardHandler; go.mod's 1.22 cannot name it.)
var DiscardHandler slog.Handler = discardHandler{}

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// NewHandler builds the HTTP front-end over srv.
func NewHandler(srv *Server, cfg HTTPConfig) (*Handler, error) {
	if cfg.Planner == nil {
		return nil, errors.New("serve: HTTPConfig.Planner is required")
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
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{} // inert
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(DiscardHandler)
	}
	h := &Handler{srv: srv, cfg: cfg, log: logger, mux: http.NewServeMux(),
		memo: lru.New[string, []*physical.Plan](planMemoCap)}
	h.mux.HandleFunc("POST /estimate", h.observed("estimate", h.handleEstimate))
	h.mux.HandleFunc("POST /select", h.observed("select", h.handleSelect))
	if reg := cfg.Metrics.Registry(); reg != nil {
		h.mux.Handle("GET /metrics", reg.Handler())
	}
	if cfg.CacheStats != nil {
		h.mux.HandleFunc("GET /cachez", func(w http.ResponseWriter, _ *http.Request) {
			keys := cfg.CacheStats()
			if keys == nil {
				keys = []CacheKeyStats{}
			}
			writeJSON(w, http.StatusOK, CacheStatsResponse{Keys: keys})
		})
	}
	if cfg.ModelAdmin != nil {
		h.mux.Handle("/models", cfg.ModelAdmin)
		h.mux.Handle("/models/", cfg.ModelAdmin)
	}
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	// Readiness is load-aware: a replica whose admission queue is full
	// reports not-ready so a router's health checker stops routing to it
	// before callers see 429s, and recovers automatically once the queue
	// drains. Draining still wins — it is terminal until restart.
	h.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		switch {
		case !h.ready.Load() || !h.srv.Ready():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
		case h.srv.Saturated():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "saturated")
		default:
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ready")
		}
	})
	h.ready.Store(true)
	return h, nil
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// statusWriter captures the response status for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// observed wraps an estimation endpoint with its per-endpoint request
// counter, latency histogram, response-code counter, and one structured
// log line per request.
func (h *Handler) observed(endpoint string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.cfg.Metrics.Requests.With(endpoint).Inc()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r)
		elapsed := time.Since(start)
		h.cfg.Metrics.HTTPLatency.With(endpoint).Observe(elapsed.Seconds())
		h.cfg.Metrics.Responses.With(strconv.Itoa(sw.code)).Inc()
		level := slog.LevelInfo
		if sw.code >= 400 {
			level = slog.LevelWarn
		}
		h.log.LogAttrs(r.Context(), level, "request",
			slog.String("endpoint", endpoint),
			slog.Int("status", sw.code),
			slog.Duration("elapsed", elapsed),
			slog.String("remote", r.RemoteAddr),
		)
	}
}

// Shutdown begins a graceful stop: readiness flips to 503 immediately (so
// balancers stop routing here), new estimation requests are rejected with
// ErrDraining, and in-flight ones are drained until ctx expires. Call it
// before http.Server.Shutdown.
func (h *Handler) Shutdown(ctx context.Context) error {
	h.ready.Store(false)
	h.log.LogAttrs(ctx, slog.LevelInfo, "shutdown started",
		slog.Int("inflight", h.srv.Inflight()))
	err := h.srv.Drain(ctx)
	if err != nil {
		h.log.LogAttrs(ctx, slog.LevelWarn, "drain abandoned", slog.String("error", err.Error()))
	} else {
		h.log.LogAttrs(ctx, slog.LevelInfo, "drain complete")
	}
	return err
}

// EstimateRequest is the JSON body of /estimate and /select. Resource
// fields are optional; zero means the server default. Exported because
// the fleet router decodes and validates the same wire format before
// proxying.
type EstimateRequest struct {
	SQL       string  `json:"sql"`
	Executors int     `json:"executors"`
	Cores     int     `json:"cores"`
	MemMB     float64 `json:"mem_mb"`
}

// Resources is the allocation r asks for — def with r's non-zero fields
// laid over it — or the "invalid resources" error both the router and the
// replica answer 400 with.
func (r EstimateRequest) Resources(def sparksim.Resources) (sparksim.Resources, error) {
	res := def
	if r.Executors != 0 {
		res.Executors = r.Executors
	}
	if r.Cores != 0 {
		res.ExecCores = r.Cores
	}
	if r.MemMB != 0 {
		res.ExecMemMB = r.MemMB
	}
	if err := res.Validate(); err != nil {
		return sparksim.Resources{}, fmt.Errorf("invalid resources: %w", err)
	}
	return res, nil
}

// EstimateResponse is the JSON answer. Degraded marks fallback answers;
// Reason then carries the deep-path failure. The fleet router emits the
// same shape for its local last-resort degrade, so clients see one
// schema whether a replica or the router answered.
type EstimateResponse struct {
	CostSec    float64 `json:"cost_sec"`
	Source     string  `json:"source"`
	Degraded   bool    `json:"degraded"`
	Reason     string  `json:"reason,omitempty"`
	PlanSig    string  `json:"plan_sig,omitempty"`
	PlanIndex  int     `json:"plan_index"`
	Candidates int     `json:"candidates"`
}

// ErrorResponse is the JSON error envelope every non-2xx estimation
// response carries.
type ErrorResponse struct {
	Error string `json:"error"`
}

func (h *Handler) handleEstimate(w http.ResponseWriter, r *http.Request) {
	plans, res, ok := h.prepare(w, r)
	if !ok {
		return
	}
	result, err := h.srv.Estimate(r.Context(), plans[0], res)
	if err != nil {
		h.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, EstimateResponse{
		CostSec: result.Cost, Source: result.Source,
		Degraded: result.Degraded, Reason: result.Reason,
		PlanSig: plans[0].Sig, PlanIndex: 0, Candidates: len(plans),
	})
}

func (h *Handler) handleSelect(w http.ResponseWriter, r *http.Request) {
	plans, res, ok := h.prepare(w, r)
	if !ok {
		return
	}
	candidates := plans
	if len(candidates) > h.cfg.MaxCandidates {
		candidates = candidates[:h.cfg.MaxCandidates]
	}
	best, result, err := h.srv.Select(r.Context(), candidates, res)
	if err != nil {
		h.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, EstimateResponse{
		CostSec: result.Cost, Source: result.Source,
		Degraded: result.Degraded, Reason: result.Reason,
		PlanSig: candidates[best].Sig, PlanIndex: best, Candidates: len(candidates),
	})
}

// prepare decodes, validates, and plans a request; on failure it has
// already written the error response.
func (h *Handler) prepare(w http.ResponseWriter, r *http.Request) ([]*physical.Plan, sparksim.Resources, bool) {
	var req EstimateRequest
	body := http.MaxBytesReader(w, r.Body, h.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// A body over the limit must answer a typed 413, not a generic
		// decode failure: the payload never reaches the JSON decoder's
		// semantics, it is simply too large to admit.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
				Error: fmt.Sprintf("request body exceeds %d byte limit", tooLarge.Limit)})
			return nil, sparksim.Resources{}, false
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()})
		return nil, sparksim.Resources{}, false
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: `missing "sql"`})
		return nil, sparksim.Resources{}, false
	}
	res, err := req.Resources(h.cfg.DefaultRes)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return nil, sparksim.Resources{}, false
	}
	plans, err := h.plan(req.SQL)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return nil, sparksim.Resources{}, false
	}
	if len(plans) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "no plan for query"})
		return nil, sparksim.Resources{}, false
	}
	return plans, res, true
}

// plan returns the candidate plans for query. A plan is a pure function
// of the canonical SQL (DESIGN §5o), so the Planner's answer is kept under
// sql.CanonicalKey — the key the fleet router routes on — and a repeated
// text, in any keyword or identifier case and any spacing, costs one lex
// and a lookup instead of parse, bind and enumerate. Requests for one text
// then share plan objects, so each plan's Key is rendered once. Text the
// lexer rejects has no key and goes to the Planner, whose error is the
// answer.
// Errors and empty lists are never kept: a failing text is planned, and
// answered 400, on every request.
func (h *Handler) plan(query string) ([]*physical.Plan, error) {
	key, keyErr := sql.CanonicalKey(query)
	if keyErr == nil {
		h.memoMu.Lock()
		plans, ok := h.memo.Get(key)
		h.memoMu.Unlock()
		if ok {
			h.cfg.Metrics.PlanMemoHits.Inc()
			return plans, nil
		}
	}
	h.cfg.Metrics.PlanMemoMisses.Inc()
	plans, err := h.cfg.Planner(query)
	if err != nil || len(plans) == 0 || keyErr != nil {
		return plans, err
	}
	h.memoMu.Lock()
	defer h.memoMu.Unlock()
	if kept, ok := h.memo.Get(key); ok {
		return kept, nil // a concurrent miss on the same key stored first
	}
	h.memo.Add(key, plans)
	return plans, nil
}

// writeError maps the serve package's typed errors to HTTP statuses. Note
// ErrInternal only reaches clients on servers with no fallback — with one
// configured, panics degrade to 200 + degraded:true.
func (h *Handler) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrOverloaded):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for logs only.
		status = http.StatusRequestTimeout
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
