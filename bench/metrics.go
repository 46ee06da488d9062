package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric and its unit. The names are the contract later
// performance claims cite ("metric X on workload Y"); BENCHMARK.json lists
// the same names and bench_test.go holds the two lists equal.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics, printed by an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"allocs_per_op", "1"},
	{"heldout_re", "ratio"},
}

// spanMetric is a per-layer metric read straight off the trace: the median
// duration (or self time) of the spans called span, from traced ops when the
// workload has such spans and from the layer probes otherwise.
type spanMetric struct {
	metricDef
	span string
	self bool
}

var spanMetrics = []spanMetric{
	{metricDef{"sql.parse_us", "us"}, "sql.parse", false},
	{metricDef{"logical.bind_us", "us"}, "logical.bind", false},
	{metricDef{"physical.enumerate_us", "us"}, "physical.enumerate", false},
	{metricDef{"encode.plan_us", "us"}, "encode.plan", false},
	{metricDef{"encode.grid_us", "us"}, "encode.grid", false},
	{metricDef{"core.forward_b1_us", "us"}, "core.forward_b1", false},
	{metricDef{"core.forward_b3_us", "us"}, "core.forward_b3", false},
	{metricDef{"core.forward_b60_us", "us"}, "core.forward_b60", false},
	{metricDef{"client.http_hop_us", "us"}, "client.http", true},
	{metricDef{"fleet.proxy_self_us", "us"}, "fleet.route", true},
	{metricDef{"fleet.plan_us", "us"}, "fleet.plan", false},
	{metricDef{"serve.handler_self_us", "us"}, "serve.handle", true},
	{metricDef{"serve.plan_us", "us"}, "serve.plan", false},
	{metricDef{"serve.deep_us", "us"}, "serve.deep", false},
	{metricDef{"workload.collect_ms", "ms"}, "workload.collect", false},
	{metricDef{"engine.run_ms", "ms"}, "engine.run", false},
	{metricDef{"sparksim.estimate_us", "us"}, "sparksim.estimate", false},
	{metricDef{"encode.fit_ms", "ms"}, "encode.fit", false},
	{metricDef{"core.train_ms", "ms"}, "core.train", false},
	{metricDef{"core.eval_ms", "ms"}, "core.eval", false},
}

// derivedMetrics are the per-layer metrics computed from counts, counters
// or the load generator rather than from one span's duration.
var derivedMetrics = []metricDef{
	{"physical.candidates_per_query", "count"},
	{"raal.fingerprint_us", "us"},
	{"raal.cache_hit_frac", "ratio"},
	{"core.forward_rows_per_s", "1/s"},
	{"tensor.matmul_mflops", "Mflop/s"},
	{"fleet.hedge_frac", "ratio"},
	{"fleet.retry_frac", "ratio"},
	{"serve.degraded_frac", "ratio"},
	{"engine.rows_per_s", "1/s"},
	{"core.fit_samples_per_s", "1/s"},
	{"client.latency_p90_ms", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"client.alloc_bytes_per_op", "B"},
	{"client.gc_cycles", "count"},
	{"client.ref_ops_per_s", "1/s"},
	{"client.fail_frac", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// perLayer lists every metric a traced run prints.
func perLayer() []metricDef {
	out := make([]metricDef, 0, len(spanMetrics)+len(derivedMetrics))
	for _, m := range spanMetrics {
		out = append(out, m.metricDef)
	}
	return append(out, derivedMetrics...)
}

// inUnit converts a duration to a metric's time unit.
func inUnit(d time.Duration, unit string) float64 {
	switch unit {
	case "us":
		return float64(d) / float64(time.Microsecond)
	case "ms":
		return float64(d) / float64(time.Millisecond)
	default:
		return d.Seconds()
	}
}

// quantile returns the q-quantile of xs by the nearest-rank rule (0 for an
// empty sample). xs is sorted in place.
func quantile[T int | float64 | time.Duration](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(median(fs))
}
