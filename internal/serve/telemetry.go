package serve

import (
	"raal/internal/telemetry"
)

// Endpoint label values pre-materialized for the HTTP metrics — label
// children are built at wiring time so the request path never allocates
// or locks to find its counter.
var (
	endpointValues = []string{"estimate", "select"}
	statusValues   = []string{"200", "400", "408", "413", "429", "500", "503", "504"}
	faultKinds     = []string{"delay", "error", "panic"}
)

// Metrics is the serving layer's metric set, registered on one
// telemetry.Registry. A nil or zero Metrics is valid and inert (every
// telemetry type is a no-op on nil), so instrumentation is strictly
// opt-in and costs an admitted request a handful of atomic adds.
type Metrics struct {
	registry *telemetry.Registry

	// Inflight tracks admitted requests (running + queued);
	// Queue tracks only the ones waiting for a slot.
	Inflight *telemetry.Gauge
	Queue    *telemetry.Gauge

	// AdmissionRejects counts 429s (slots and queue both full);
	// DrainRejects counts requests refused because the server is
	// draining; DeadlineExpiries counts deep-path deadline misses
	// (whatever the policy turned them into); Degraded counts answers
	// served by the analytical fallback after a deep failure.
	AdmissionRejects *telemetry.Counter
	DrainRejects     *telemetry.Counter
	DeadlineExpiries *telemetry.Counter
	Degraded         *telemetry.Counter

	// Faults counts injected faults by kind (delay/error/panic).
	Faults *telemetry.CounterVec

	// PredictLatency observes the end-to-end estimation time of every
	// successfully served request (deep or fallback), in seconds.
	PredictLatency *telemetry.Histogram

	// HTTP front-end: requests and latency by endpoint, responses by
	// status code.
	Requests    *telemetry.CounterVec
	Responses   *telemetry.CounterVec
	HTTPLatency *telemetry.HistogramVec

	// PlanMemoHits counts requests whose candidate plans came from the
	// handler's SQL-keyed plan entry; PlanMemoMisses counts requests that
	// called the Planner (new text, evicted text, lexer or planner error).
	PlanMemoHits   *telemetry.Counter
	PlanMemoMisses *telemetry.Counter
}

// NewMetrics registers the serving metric set on reg. Metric names are
// stable API: dashboards and the README table reference them.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		registry: reg,
		Inflight: reg.NewGauge("raal_serve_inflight_requests",
			"Admitted requests currently running or queued."),
		Queue: reg.NewGauge("raal_serve_queue_depth",
			"Admitted requests waiting for a concurrency slot."),
		AdmissionRejects: reg.NewCounter("raal_serve_admission_rejects_total",
			"Requests rejected because all slots and the wait queue were full (HTTP 429)."),
		DrainRejects: reg.NewCounter("raal_serve_drain_rejects_total",
			"Requests rejected because the server was draining (HTTP 503)."),
		DeadlineExpiries: reg.NewCounter("raal_serve_deadline_expiries_total",
			"Deep-path estimations abandoned on an expired per-request deadline."),
		Degraded: reg.NewCounter("raal_serve_degraded_fallbacks_total",
			"Answers served by the analytical fallback after a deep-model failure."),
		Faults: reg.NewCounterVec("raal_serve_injected_faults_total",
			"Deterministically injected faults by kind.", "kind", faultKinds...),
		PredictLatency: reg.NewHistogram("raal_serve_predict_seconds",
			"End-to-end estimation latency of successfully served requests.", nil),
		Requests: reg.NewCounterVec("raal_serve_http_requests_total",
			"HTTP estimation requests by endpoint.", "endpoint", endpointValues...),
		Responses: reg.NewCounterVec("raal_serve_http_responses_total",
			"HTTP responses by status code.", "code", statusValues...),
		HTTPLatency: reg.NewHistogramVec("raal_serve_http_request_seconds",
			"HTTP request latency by endpoint.", nil, "endpoint", endpointValues...),
		PlanMemoHits: reg.NewCounter("raal_serve_plan_memo_hits_total",
			"Requests whose candidate plans were served from the handler's SQL-keyed plan entry."),
		PlanMemoMisses: reg.NewCounter("raal_serve_plan_memo_misses_total",
			"Requests that called the planner (SQL text not in the plan entry, or not lexable)."),
	}
}

// Registry returns the registry the metrics are registered on (nil for
// an inert Metrics).
func (m *Metrics) Registry() *telemetry.Registry {
	if m == nil {
		return nil
	}
	return m.registry
}
