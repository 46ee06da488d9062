package fleet

import (
	"raal/internal/telemetry"
)

// Label values pre-materialized at wiring time, like internal/serve.
var (
	fleetEndpoints    = []string{"estimate", "select"}
	hedgeOutcomes     = []string{"fired", "won", "lost"}
	fleetStatusValues = []string{"200", "400", "408", "413", "429", "500", "503", "504"}
)

// Metrics is the fleet router's metric set. Nil or zero value is inert,
// matching the serve and telemetry conventions. Per-replica vecs are
// keyed by replica ID, pre-materialized for the configured membership.
type Metrics struct {
	registry *telemetry.Registry

	// Requests counts router requests by endpoint; Responses counts what
	// the caller ultimately received, by status code.
	Requests  *telemetry.CounterVec
	Responses *telemetry.CounterVec

	// Proxied counts requests answered by each replica (the hedge or
	// failover winner — exactly one per served request).
	Proxied *telemetry.CounterVec

	// Retries counts same-replica retry attempts after a connection
	// error or 5xx; Failovers counts moves to the next ring position
	// after a replica was exhausted.
	Retries   *telemetry.Counter
	Failovers *telemetry.Counter

	// Hedges counts tail hedges by outcome: fired (second request
	// launched), won (the hedge answered first), lost (the primary beat
	// it). fired == won + lost once all in-flight pairs resolve.
	Hedges *telemetry.CounterVec
	// HedgeThreshold reports the current trigger latency in seconds.
	HedgeThreshold *telemetry.Gauge

	// Degraded counts requests answered by the router's local analytical
	// fallback because no replica could (tagged degraded:true).
	Degraded *telemetry.Counter

	// ReplicaState gauges the health state per replica (0 down,
	// 1 suspect, 2 recovered, 3 healthy), fed by probes and request
	// outcomes alike; ReplicaUp is the routable bit.
	ReplicaState *telemetry.GaugeVec
	ReplicaUp    *telemetry.GaugeVec

	// ProbeFailures counts failed readyz probes per replica (failed
	// requests show in Retries and Failovers);
	// Rebalances counts effective-membership changes (a replica
	// crossing routable ↔ not — every such transition re-maps the keys
	// it owned or receives them back).
	ProbeFailures *telemetry.CounterVec
	Rebalances    *telemetry.Counter

	// RouteLatency observes end-to-end router latency (admission to
	// final byte) for served requests, in seconds.
	RouteLatency *telemetry.Histogram
}

// NewMetrics registers the fleet metric set on reg with per-replica
// children for the given replica IDs. Metric names are stable API.
func NewMetrics(reg *telemetry.Registry, replicaIDs []string) *Metrics {
	return &Metrics{
		registry: reg,
		Requests: reg.NewCounterVec("raal_fleet_requests_total",
			"Router requests by endpoint.", "endpoint", fleetEndpoints...),
		Responses: reg.NewCounterVec("raal_fleet_responses_total",
			"Router responses by status code.", "code", fleetStatusValues...),
		Proxied: reg.NewCounterVec("raal_fleet_proxied_total",
			"Requests answered by each replica.", "replica", replicaIDs...),
		Retries: reg.NewCounter("raal_fleet_retries_total",
			"Same-replica retries after a connection error or 5xx."),
		Failovers: reg.NewCounter("raal_fleet_failovers_total",
			"Requests moved to the next ring position after exhausting a replica."),
		Hedges: reg.NewCounterVec("raal_fleet_hedges_total",
			"Tail hedges by outcome (fired / won / lost).", "outcome", hedgeOutcomes...),
		HedgeThreshold: reg.NewGauge("raal_fleet_hedge_threshold_seconds",
			"Current tail-hedging trigger latency."),
		Degraded: reg.NewCounter("raal_fleet_degraded_total",
			"Requests answered by the router's local analytical fallback (no replica available)."),
		ReplicaState: reg.NewGaugeVec("raal_fleet_replica_state",
			"Replica health state (0 down, 1 suspect, 2 recovered, 3 healthy).", "replica", replicaIDs...),
		ReplicaUp: reg.NewGaugeVec("raal_fleet_replica_up",
			"Whether the replica is routable (1) or down (0).", "replica", replicaIDs...),
		ProbeFailures: reg.NewCounterVec("raal_fleet_probe_failures_total",
			"Failed health probes per replica.", "replica", replicaIDs...),
		Rebalances: reg.NewCounter("raal_fleet_ring_rebalances_total",
			"Effective-membership changes (a replica crossing routable/not-routable)."),
		RouteLatency: reg.NewHistogram("raal_fleet_request_seconds",
			"End-to-end router latency of served requests.", nil),
	}
}

// Registry returns the registry the metrics live on (nil when inert).
func (m *Metrics) Registry() *telemetry.Registry {
	if m == nil {
		return nil
	}
	return m.registry
}
