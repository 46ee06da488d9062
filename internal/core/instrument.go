package core

import (
	"time"

	"raal/internal/telemetry"
)

// Instrumentation is the model layer's metric set: inference latency and
// throughput, plus training progress gauges. A nil *Instrumentation is
// valid and inert — every observation on it is a no-op — so models serve
// unobserved by default and gain telemetry only when Instrument is
// called (or TrainConfig.Instr is set).
type Instrumentation struct {
	// PredictLatency observes one value per PredictCtx or ScoreCtx call
	// (the whole batch, in seconds); PredictRows counts the samples
	// scored; RowsPerSec is the most recent call's throughput.
	PredictLatency *telemetry.Histogram
	PredictRows    *telemetry.Counter
	RowsPerSec     *telemetry.Gauge

	// BucketOccupancy counts scored samples by the band of the length hint
	// the scheduler grouped them by (the active plan length, or a
	// candidate plan's node count): how many per-length chunks a
	// workload's calls split into.
	BucketOccupancy *telemetry.CounterVec

	// PrefixComputed counts the plan prefixes inference ran (one recurrence
	// each); PrefixReused counts the scored rows that rode a prefix computed
	// for another row of their chunk or memoized by an earlier call. The
	// two sum to PredictRows.
	PrefixComputed *telemetry.Counter
	PrefixReused   *telemetry.Counter

	// TrainEpochs counts completed epochs; TrainLoss is the latest
	// epoch's sample-weighted mean training loss (log-cost MSE);
	// ShardsPerSec is the number of 8-sample gradient shards (shardSize)
	// trained per second in the latest epoch.
	TrainEpochs  *telemetry.Counter
	TrainLoss    *telemetry.Gauge
	ShardsPerSec *telemetry.Gauge
}

// bucketBands are the pre-materialized active-length label values; label
// children are built at registration time so the scoring path only pays
// atomic adds.
var bucketBands = []string{"1-2", "3-4", "5-8", "9-16", "17-32", "33+"}

// bucketBand maps a length hint to its occupancy label.
func bucketBand(l int) string {
	switch {
	case l <= 2:
		return "1-2"
	case l <= 4:
		return "3-4"
	case l <= 8:
		return "5-8"
	case l <= 16:
		return "9-16"
	case l <= 32:
		return "17-32"
	default:
		return "33+"
	}
}

// NewInstrumentation registers the model metric set on reg.
func NewInstrumentation(reg *telemetry.Registry) *Instrumentation {
	return &Instrumentation{
		PredictLatency: reg.NewHistogram("raal_predict_latency_seconds",
			"Latency of one Predict call (whole batch).", nil),
		PredictRows: reg.NewCounter("raal_predict_rows_total",
			"Samples scored by Predict."),
		RowsPerSec: reg.NewGauge("raal_predict_rows_per_sec",
			"Throughput of the most recent Predict call."),
		BucketOccupancy: reg.NewCounterVec("raal_predict_bucket_occupancy_total",
			"Samples scored by the length-bucketed scheduler, by length-hint band.",
			"len", bucketBands...),
		PrefixComputed: reg.NewCounter("raal_prefix_computed_total",
			"Plan prefixes (embed, recurrence, node-aware attention) computed by inference."),
		PrefixReused: reg.NewCounter("raal_prefix_reused_total",
			"Scored rows served by a plan prefix shared within their chunk or memoized by an earlier call."),
		TrainEpochs: reg.NewCounter("raal_train_epochs_total",
			"Completed training epochs."),
		TrainLoss: reg.NewGauge("raal_train_epoch_loss",
			"Latest epoch's sample-weighted mean training loss (log-cost MSE)."),
		ShardsPerSec: reg.NewGauge("raal_train_shards_per_sec",
			"8-sample gradient shards trained per second in the latest epoch."),
	}
}

// observePredict records one finished prediction batch. Nil-safe.
func (ins *Instrumentation) observePredict(rows int, elapsed time.Duration) {
	if ins == nil {
		return
	}
	sec := elapsed.Seconds()
	ins.PredictLatency.Observe(sec)
	ins.PredictRows.Add(uint64(rows))
	if sec > 0 {
		ins.RowsPerSec.Set(float64(rows) / sec)
	}
}

// observeBuckets records one scheduled call's length-hint distribution.
// Nil-safe.
func (ins *Instrumentation) observeBuckets(lens []int) {
	if ins == nil {
		return
	}
	for _, l := range lens {
		ins.BucketOccupancy.With(bucketBand(l)).Inc()
	}
}

// observePrefixes records one inference chunk's prefix accounting.
// Nil-safe.
func (ins *Instrumentation) observePrefixes(computed, reused int) {
	if ins == nil {
		return
	}
	ins.PrefixComputed.Add(uint64(computed))
	ins.PrefixReused.Add(uint64(reused))
}

// observeEpoch records one finished training epoch. Nil-safe.
func (ins *Instrumentation) observeEpoch(loss float64, shards int, elapsed time.Duration) {
	if ins == nil {
		return
	}
	ins.TrainEpochs.Inc()
	ins.TrainLoss.Set(loss)
	if sec := elapsed.Seconds(); sec > 0 {
		ins.ShardsPerSec.Set(float64(shards) / sec)
	}
}

// Instrument attaches the metric set to the model: subsequent
// PredictCtx calls observe latency and throughput into it. Safe
// to call once at wiring time; the field is read concurrently afterwards.
func (m *Model) Instrument(ins *Instrumentation) { m.instr = ins }
