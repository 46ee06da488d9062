package online

import (
	"raal/internal/telemetry"
)

// qErrorBounds buckets observed q-errors; a perfect prediction is 1.
var qErrorBounds = []float64{1, 1.1, 1.25, 1.5, 2, 3, 5, 10, 100}

// promotionReasons labels why a champion changed.
var promotionReasons = []string{"shadow", "manual", "rollback"}

// Metrics is the online-learning loop's metric set. As everywhere else
// in the repo, a nil Metrics is valid and inert.
type Metrics struct {
	registry *telemetry.Registry

	// Feedback counts observed outcomes ingested; ReplaySize tracks the
	// replay buffer's current occupancy.
	Feedback   *telemetry.Counter
	ReplaySize *telemetry.Gauge

	// QError observes every feedback q-error; DriftQuantile mirrors the
	// detector's current windowed quantile (NaN-free: unset until the
	// window first fills).
	QError        *telemetry.Histogram
	DriftQuantile *telemetry.Gauge

	// DriftTriggers counts threshold crossings that dispatched a retrain;
	// Retrains counts completed challenger training runs.
	DriftTriggers *telemetry.Counter
	Retrains      *telemetry.Counter

	// ShadowScored counts feedback outcomes scored against a live
	// challenger; ShadowRejects counts challengers discarded for losing
	// the shadow comparison.
	ShadowScored  *telemetry.Counter
	ShadowRejects *telemetry.Counter

	// Promotions counts champion swaps by reason (shadow/manual/rollback);
	// ChampionVersion is the serving version number.
	Promotions      *telemetry.CounterVec
	ChampionVersion *telemetry.Gauge
}

// NewMetrics registers the online metric set on reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		registry: reg,
		Feedback: reg.NewCounter("raal_online_feedback_total",
			"Observed (plan, resources, actual cost) outcomes ingested as labeled samples."),
		ReplaySize: reg.NewGauge("raal_online_replay_samples",
			"Labeled samples currently held in the replay reservoir."),
		QError: reg.NewHistogram("raal_online_qerror",
			"Q-error of served predictions against observed costs.", qErrorBounds),
		DriftQuantile: reg.NewGauge("raal_online_drift_quantile",
			"Current windowed q-error quantile watched by the drift detector."),
		DriftTriggers: reg.NewCounter("raal_online_drift_triggers_total",
			"Drift-threshold crossings that dispatched a challenger retrain."),
		Retrains: reg.NewCounter("raal_online_retrains_total",
			"Challenger training runs completed from the replay buffer."),
		ShadowScored: reg.NewCounter("raal_online_shadow_scored_total",
			"Feedback outcomes scored against a live shadow challenger."),
		ShadowRejects: reg.NewCounter("raal_online_shadow_rejects_total",
			"Challengers discarded for losing the shadow comparison."),
		Promotions: reg.NewCounterVec("raal_online_promotions_total",
			"Champion swaps by reason.", "reason", promotionReasons...),
		ChampionVersion: reg.NewGauge("raal_online_champion_version",
			"Version number of the model currently serving."),
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
