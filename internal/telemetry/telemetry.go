// Package telemetry is the stdlib-only observability substrate: a
// concurrent metrics registry (counters, gauges, fixed-bucket
// histograms), a Prometheus text-exposition writer, and a lightweight
// per-stage span tracer.
//
// Design constraints, in order:
//
//   - Nothing on the hot path allocates, locks, or formats. Counters and
//     histograms are plain atomics; label lookup happens once at wiring
//     time, not per observation (see the *Vec types, whose children are
//     pre-materialized).
//   - Instrumentation must be optional at zero cost. Every metric method
//     is safe on a nil receiver, so uninstrumented code paths pay one
//     predictable branch and nothing else — callers never need
//     `if m != nil` guards.
//   - Registration is get-or-create and panics only on genuine misuse
//     (same name registered as two different kinds, malformed names), so
//     independent components can share one registry without coordinating.
//
// Exposition (WriteText, Handler) serializes everything in the
// Prometheus text format, version 0.0.4 — scrape-compatible without any
// client library.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// metricKind discriminates families in the registry.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Registry holds metric families and serializes them for scraping. The
// zero value is not usable; call NewRegistry. All methods are safe for
// concurrent use; registration takes a lock, observation never does.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric of one kind with one or more children
// (exactly one, unlabeled, for plain metrics; one per label value for
// vecs).
type family struct {
	name   string
	help   string
	kind   metricKind
	label  string // label key for vec families, "" for plain
	bounds []float64

	// children maps label value → child, "" for the unlabeled child.
	// Written only under Registry.mu at registration time; read
	// lock-free everywhere via the snapshot below.
	children map[string]any
	snapshot atomic.Value // map[string]any, replaced wholesale on registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether name is a legal Prometheus metric/label name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		letter := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !letter && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// lookup finds or creates the family, enforcing kind agreement.
// Call with r.mu held.
func (r *Registry) lookup(name, help string, kind metricKind) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]any)}
		f.snapshot.Store(map[string]any{})
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q already registered as %s, requested %s", name, f.kind, kind))
	}
	return f
}

// child returns the family's child for the label value, creating it with
// mk if absent. Call with r.mu held.
func (f *family) child(value string, mk func() any) any {
	if c, ok := f.children[value]; ok {
		return c
	}
	c := mk()
	f.children[value] = c
	snap := make(map[string]any, len(f.children))
	for k, v := range f.children {
		snap[k] = v
	}
	f.snapshot.Store(snap)
	return c
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing count. All methods are nil-safe:
// a nil *Counter silently drops observations, so instrumentation can be
// wired unconditionally.
type Counter struct {
	labelValue string
	n          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta.
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.n.Add(delta)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// NewCounter registers (or retrieves) the named counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter)
	return f.child("", func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family keyed by one label. Children are
// materialized at registration, so With is a lock-free map read and the
// Inc/Add hot path never allocates.
type CounterVec struct {
	f *family
}

// NewCounterVec registers the named counter family with the given label
// key and pre-materializes a child per value. More values may be added
// later by calling NewCounterVec again with the same name.
func (r *Registry) NewCounterVec(name, help, label string, values ...string) *CounterVec {
	if !validName(label) {
		panic(fmt.Sprintf("telemetry: invalid label name %q", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter)
	f.label = label
	for _, v := range values {
		f.child(v, func() any { return &Counter{labelValue: v} })
	}
	return &CounterVec{f: f}
}

// With returns the child counter for the label value, or nil (a no-op
// counter) when the value was not pre-materialized. Nil-safe.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	c, _ := v.f.snapshot.Load().(map[string]any)[value].(*Counter)
	return c
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a value that can go up and down (float64). Nil-safe.
type Gauge struct {
	labelValue string
	bits       atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (CAS loop; Inc/Dec are Add(±1)).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// NewGauge registers (or retrieves) the named gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	return f.child("", func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family keyed by one label, children
// pre-materialized like CounterVec — the fleet router keys its
// replica-health gauges by replica.
type GaugeVec struct {
	f *family
}

// NewGaugeVec registers the named gauge family with the given label key
// and pre-materializes a child per value. More values may be added later
// by calling NewGaugeVec again with the same name.
func (r *Registry) NewGaugeVec(name, help, label string, values ...string) *GaugeVec {
	if !validName(label) {
		panic(fmt.Sprintf("telemetry: invalid label name %q", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	f.label = label
	for _, v := range values {
		f.child(v, func() any { return &Gauge{labelValue: v} })
	}
	return &GaugeVec{f: f}
}

// With returns the child gauge for the label value, or nil (a no-op
// gauge) when the value was not pre-materialized. Nil-safe.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	g, _ := v.f.snapshot.Load().(map[string]any)[value].(*Gauge)
	return g
}

// ---------------------------------------------------------------------------
// Histogram

// DefLatencyBuckets are the default latency buckets in seconds: 0.5 ms to
// 10 s, roughly logarithmic — wide enough for both a sub-millisecond
// analytical estimate and a multi-second cold deep batch.
func DefLatencyBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// Histogram counts observations into fixed buckets (plus an implicit
// +Inf bucket) and tracks their sum. Observe is a linear bucket scan and
// three atomic ops — no locks, no allocation. Nil-safe.
type Histogram struct {
	labelValue string
	bounds     []float64 // strictly increasing upper bounds
	buckets    []atomic.Uint64
	count      atomic.Uint64
	sumBits    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// newHistogram validates and copies bounds.
func newHistogram(labelValue string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("telemetry: histogram bounds must be strictly increasing, got %v", bounds))
		}
	}
	h := &Histogram{labelValue: labelValue, bounds: append([]float64(nil), bounds...)}
	h.buckets = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// NewHistogram registers (or retrieves) the named histogram with the
// given bucket upper bounds (nil means DefLatencyBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogram)
	if f.bounds == nil {
		if len(bounds) == 0 {
			bounds = DefLatencyBuckets()
		}
		f.bounds = append([]float64(nil), bounds...)
	}
	return f.child("", func() any { return newHistogram("", f.bounds) }).(*Histogram)
}

// HistogramVec is a histogram family keyed by one label, children
// pre-materialized like CounterVec.
type HistogramVec struct {
	f *family
}

// NewHistogramVec registers the named histogram family and
// pre-materializes a child per label value, all sharing one bucket
// layout (nil bounds means DefLatencyBuckets).
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, label string, values ...string) *HistogramVec {
	if !validName(label) {
		panic(fmt.Sprintf("telemetry: invalid label name %q", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogram)
	f.label = label
	if f.bounds == nil {
		if len(bounds) == 0 {
			bounds = DefLatencyBuckets()
		}
		f.bounds = append([]float64(nil), bounds...)
	}
	for _, v := range values {
		f.child(v, func() any { return newHistogram(v, f.bounds) })
	}
	return &HistogramVec{f: f}
}

// With returns the child histogram for the label value, or nil (a no-op
// histogram) when the value was not pre-materialized. Nil-safe.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	h, _ := v.f.snapshot.Load().(map[string]any)[value].(*Histogram)
	return h
}

// sortedFamilies returns the families sorted by name (a stable scrape
// order, and the order WriteText emits).
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren returns a family's children ordered by label value.
func (f *family) sortedChildren() []any {
	snap, _ := f.snapshot.Load().(map[string]any)
	values := make([]string, 0, len(snap))
	for v := range snap {
		values = append(values, v)
	}
	sort.Strings(values)
	out := make([]any, len(values))
	for i, v := range values {
		out[i] = snap[v]
	}
	return out
}
