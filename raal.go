// Package raal is a from-scratch reproduction of "A Resource-Aware Deep
// Cost Model for Big Data Query Processing" (Li, Wang, Wang, Sun, Peng —
// ICDE 2022): a learned cost model for Spark-SQL-style engines that
// predicts the execution time of a physical query plan *given the
// resources allocated to it*, and uses those predictions to pick the best
// candidate plan.
//
// The package exposes the full pipeline:
//
//	sys, _ := raal.Open(raal.IMDB, 0.1, 1)        // synthetic benchmark + simulated cluster
//	plans, _ := sys.Plan("SELECT COUNT(*) ...")   // Catalyst-style candidates
//	ds, _ := sys.Collect(raal.CollectOptions{})   // (plan, resources) → cost corpus
//	cm, _ := raal.TrainCostModel(ds, raal.RAAL(), raal.TrainOptions{})
//	best, pred, _ := sys.SelectPlan(cm, sql, res) // resource-aware plan choice
//
// Everything is pure Go and deterministic given seeds: the SQL front-end,
// planner, execution engine, cluster simulator, word2vec, and the neural
// network stack live under internal/.
package raal

import (
	"raal/internal/baselines"
	"raal/internal/core"
	"raal/internal/encode"
	"raal/internal/engine"
	"raal/internal/metrics"
	"raal/internal/physical"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
	"raal/internal/workload"
)

// Benchmark names the built-in synthetic benchmarks.
type Benchmark string

// Built-in benchmarks.
const (
	IMDB Benchmark = "imdb" // JOB-style skewed/correlated movie data
	TPCH Benchmark = "tpch" // uniform decision-support data
)

// Re-exported core types, so callers never import internal packages.
type (
	// Plan is a physical query plan (a tree of Spark-style operators).
	Plan = physical.Plan
	// PlanNode is one operator of a Plan.
	PlanNode = physical.Node
	// Relation is an executed query result.
	Relation = engine.Relation
	// Resources is a cluster resource allocation (paper Table I).
	Resources = sparksim.Resources
	// Dataset is a collected training corpus.
	Dataset = workload.Dataset
	// Variant selects a model architecture (RAAL or an ablation).
	Variant = core.Variant
	// Metrics bundles RE / MSE / COR / R² (paper Eqs. 12–15).
	Metrics = metrics.Result
	// Sample is one encoded training example.
	Sample = encode.Sample
	// GPSJ is the analytical Spark cost model baseline.
	GPSJ = baselines.GPSJ
	// CostBreakdown decomposes a simulated cost into per-stage parts.
	CostBreakdown = sparksim.CostBreakdown
	// TLSTM is the tree-LSTM RDBMS cost model baseline.
	TLSTM = baselines.TLSTM
	// PredictOpts is the field-less options argument of the batch
	// estimation APIs: every call runs the one schedule (chunks of up to
	// 64 plans of one length, longest first, each plan encoded and scored
	// on one of GOMAXPROCS goroutines).
	PredictOpts = core.PredictOpts
	// InputError is LoadCostModel's refusal of a network that does not fit
	// the file's encoder; match with errors.As.
	InputError = core.InputError
	// MetricsRegistry collects counters, gauges, and histograms and writes
	// them in the Prometheus text exposition format (see NewMetricsRegistry
	// and CostModel.Instrument).
	MetricsRegistry = telemetry.Registry
	// Span is a per-stage wall-time breakdown of one inference call, put
	// on its context with telemetry.WithSpan (see CostModel.EstimateCtx).
	Span = telemetry.Span
)

// NewMetricsRegistry returns an empty metrics registry. Wire it into
// TrainOptions.Metrics or CostModel.Instrument, then expose it over HTTP
// with its Handler method or serialize it with WriteText.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// Model architecture constructors (paper Sec. IV-D and ablations).
var (
	// RAAL is the paper's full Resource-Aware Attentional LSTM.
	RAAL = core.RAAL
	// NELSTM drops the plan-structure embedding.
	NELSTM = core.NELSTM
	// NALSTM drops the node-aware attention layer.
	NALSTM = core.NALSTM
	// RAAC swaps the LSTM for a 1-D CNN.
	RAAC = core.RAAC
)

// DefaultResources is the paper's 2-executor × 2-core × 4 GB baseline
// allocation on a 4-node cluster.
func DefaultResources() Resources { return sparksim.DefaultResources() }

// MaxResources is the whole-cluster allocation used for Eq.-1
// normalization.
func MaxResources() Resources { return sparksim.MaxResources() }

// Evaluate computes the paper's metrics for estimated vs actual costs.
func Evaluate(actual, estimated []float64) (Metrics, error) {
	return metrics.Evaluate(actual, estimated)
}

// NewGPSJBaseline returns the analytical GPSJ cost model calibrated
// against the simulator's nominal hardware constants.
func NewGPSJBaseline() *GPSJ { return baselines.NewGPSJ(sparksim.DefaultConfig()) }
