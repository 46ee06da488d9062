package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Times are nanoseconds since the recorder was created. Spans of one
// op share an op_id; probe spans (layer functions timed outside any op)
// carry op_id -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Op     int    `json:"op_id"`
	N      int    `json:"n,omitempty"` // work done inside the span, as a count
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Roots of the two span trees a traced run records.
const (
	spanOp    = "client.op" // one per traced op; its self time is benchmark glue
	spanProbe = "probe"     // parent of every layer probe
)

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced path pays one nil check per boundary.
//
// A traced run has one client, so at most one span of a given name is open
// at a time. That lets a boundary name its parent instead of passing span
// handles through the program's own call chain (HTTP handlers, planner and
// estimator closures), which the benchmark may not edit.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  map[string]int
	op    int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: map[string]int{}, op: -1}
}

// startOp opens the root span of traced op k.
func (r *recorder) startOp(k int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	r.op = k
	r.mu.Unlock()
	return r.begin(spanOp, "")
}

// endOp closes an op's root span; spans recorded afterwards are probes.
func (r *recorder) endOp(id int) {
	if r == nil {
		return
	}
	r.end(id)
	r.mu.Lock()
	r.op = -1
	r.mu.Unlock()
}

// begin opens a span under the open span called parent ("" for a root) and
// returns its handle.
func (r *recorder) begin(name, parent string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := -1
	if parent != "" {
		if i, ok := r.open[parent]; ok {
			p = i
		}
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: p, Op: r.op})
	r.open[name] = id
	r.spans[id].Start = int64(time.Since(r.t0))
	return id
}

func (r *recorder) end(id int) { r.endN(id, 0) }

// endN closes a span and records how much work it did.
func (r *recorder) endN(id, n int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End, s.N = now, n
	if r.open[s.Name] == id {
		delete(r.open, s.Name)
	}
}

// time records fn, which returns how much work it did, as one span.
func (r *recorder) time(name, parent string, fn func() int) {
	id := r.begin(name, parent)
	r.endN(id, fn())
}

// spanStats is what the per-layer metrics read: per span name, every
// duration, self time (duration minus the part its children cover) and work
// count, with op spans and probe spans kept apart.
type spanStats struct {
	dur, self map[string][]time.Duration
	n         map[string][]int
}

func newSpanStats() *spanStats {
	return &spanStats{dur: map[string][]time.Duration{}, self: map[string][]time.Duration{}, n: map[string][]int{}}
}

// analyze splits the recorded spans into op and probe statistics.
func (r *recorder) analyze() (ops, probes *spanStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
		}
	}
	ops, probes = newSpanStats(), newSpanStats()
	for i, s := range r.spans {
		st := ops
		if s.Op < 0 {
			st = probes
		}
		st.dur[s.Name] = append(st.dur[s.Name], s.dur())
		st.self[s.Name] = append(st.self[s.Name], s.dur()-covered[i])
		st.n[s.Name] = append(st.n[s.Name], s.N)
	}
	return ops, probes
}

// coverage is the share of traced op time spent inside a layer span, as
// opposed to the benchmark's own glue between them.
func (st *spanStats) coverage() float64 {
	var total, glue time.Duration
	for i, d := range st.dur[spanOp] {
		total += d
		glue += st.self[spanOp][i]
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(glue)/float64(total)
}
