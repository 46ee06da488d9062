package telemetry

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span records wall time per named stage of one logical operation, so a
// single estimate can be decomposed into encode → embed → lstm →
// attention → dense timings. Stages may repeat (a chunked predict enters
// each stage once per chunk); repeated entries accumulate into one
// bucket per name, listed in first-entry order.
//
// All methods are safe on a nil *Span — instrumented code passes spans
// through unconditionally and untraced calls pay one branch — and safe
// for concurrent use, though per-stage wall times from concurrent
// goroutines can sum to more than the span total.
type Span struct {
	name  string
	begin time.Time

	mu    sync.Mutex
	order []string
	durs  map[string]time.Duration
	total time.Duration // fixed by End; 0 while open
}

// Stage names one timed stage with its accumulated duration.
type Stage struct {
	Name string
	Dur  time.Duration
}

// StartSpan opens a span.
func StartSpan(name string) *Span {
	return &Span{name: name, begin: time.Now(), durs: make(map[string]time.Duration)}
}

// Stage enters the named stage and returns the function that leaves it,
// adding the elapsed wall time to the stage's bucket:
//
//	defer sp.Stage("lstm")()
//
// On a nil span the returned func is a no-op.
func (s *Span) Stage(name string) func() {
	if s == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		s.mu.Lock()
		if _, seen := s.durs[name]; !seen {
			s.order = append(s.order, name)
		}
		s.durs[name] += d
		s.mu.Unlock()
	}
}

// End fixes the span's total duration and returns it. Further Stage
// calls still accumulate (they are harmless), but Total no longer moves.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.total == 0 {
		s.total = time.Since(s.begin)
	}
	return s.total
}

// Total returns the span duration: the End-fixed total, or the running
// elapsed time while the span is open. 0 on nil.
func (s *Span) Total() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.total != 0 {
		return s.total
	}
	return time.Since(s.begin)
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Stages returns the accumulated per-stage durations in first-entry
// order. Nil-safe.
func (s *Span) Stages() []Stage {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Stage, len(s.order))
	for i, n := range s.order {
		out[i] = Stage{Name: n, Dur: s.durs[n]}
	}
	return out
}

// Dur returns the accumulated duration of one stage (0 if never entered
// or nil span).
func (s *Span) Dur(stage string) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durs[stage]
}

// String renders "name total=… stage=… stage=…" for logs and progress
// lines.
func (s *Span) String() string {
	if s == nil {
		return "<nil span>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s total=%v", s.name, s.Total().Round(time.Microsecond))
	for _, st := range s.Stages() {
		fmt.Fprintf(&b, " %s=%v", st.Name, st.Dur.Round(time.Microsecond))
	}
	return b.String()
}

type spanKey struct{}

// WithSpan returns a copy of ctx that carries sp, for the code down the
// call chain to time its stages into. The caller still owns sp (End).
func WithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom returns the span WithSpan put on ctx, or nil — on which every
// Span method is a no-op — when there is none.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}
