package fleet

import (
	"raal/internal/telemetry"
)

// Label values pre-materialized at wiring time, like internal/serve.
var (
	fleetEndpoints    = []string{"estimate", "select"}
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

	// Proxied counts requests answered by each replica (the failover
	// winner — exactly one per served request).
	Proxied *telemetry.CounterVec

	// Failovers counts moves to the next ring position after a replica's
	// attempt failed or was shed.
	Failovers *telemetry.Counter

	// Deprecated: always nil and never registered (reads 0); the router
	// makes one attempt per replica.
	Retries *telemetry.Counter
	// Deprecated: always nil and never registered (reads 0); the router
	// does not hedge.
	Hedges *telemetry.CounterVec

	// Degraded counts requests answered by the router's local analytical
	// fallback because no replica could (tagged degraded:true).
	Degraded *telemetry.Counter

	// ReplicaState gauges the health state per replica (0 down,
	// 1 suspect, 2 recovered, 3 healthy), fed by probes and request
	// outcomes alike; ReplicaUp is the routable bit.
	ReplicaState *telemetry.GaugeVec
	ReplicaUp    *telemetry.GaugeVec

	// ProbeFailures counts failed readyz probes per replica (failed
	// requests show in Failovers);
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
		Failovers: reg.NewCounter("raal_fleet_failovers_total",
			"Requests moved to the next ring position after a replica's attempt failed or was shed."),
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
