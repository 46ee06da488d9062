// Package serve is the robustness layer that makes cost estimation safe
// to expose to untrusted traffic. It wraps a deep estimator (and an
// optional analytical fallback, in practice the GPSJ baseline) behind:
//
//   - admission control — a bounded slot pool plus a bounded wait queue;
//     when both are full, requests are rejected immediately with
//     ErrOverloaded instead of accepting unbounded work;
//   - panic isolation — every estimator call runs behind a recover
//     boundary, so a shape mismatch or corrupt weight deep inside
//     tensor/autodiff/nn becomes a typed ErrInternal, not a dead process;
//   - deadlines — each admitted request gets a per-request budget; the
//     deep path is abandoned when it expires (the estimator itself is
//     cancelled cooperatively via context);
//   - graceful degradation — when the deep model errors, panics, or
//     misses its deadline, the analytical fallback answers instead and
//     the result is tagged Degraded, preserving availability at reduced
//     accuracy (Siddiqui et al.'s case for keeping an analytical model);
//   - lifecycle — readiness reporting and a drain that lets in-flight
//     requests finish while rejecting new ones.
//
// Deterministic fault injection (FaultConfig) exercises every one of
// these paths in tests without any real model.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"raal/internal/metrics"
	"raal/internal/physical"
	"raal/internal/sparksim"
)

// Typed failure modes, matched with errors.Is.
var (
	// ErrOverloaded: all concurrency slots busy and the wait queue full.
	ErrOverloaded = errors.New("serve: overloaded, request rejected")
	// ErrInternal: the estimator panicked; the panic value is in the
	// wrapped message.
	ErrInternal = errors.New("serve: internal estimator failure")
	// ErrDeadline: the per-request deadline expired and the server is
	// configured to fail (or has no fallback).
	ErrDeadline = errors.New("serve: estimation deadline exceeded")
	// ErrDraining: the server is shutting down and admits no new work.
	ErrDraining = errors.New("serve: server draining")
)

// EstimateFunc prices one plan under one allocation.
type EstimateFunc func(ctx context.Context, p *physical.Plan, res sparksim.Resources) (float64, error)

// BatchEstimateFunc prices many candidate plans under one allocation.
type BatchEstimateFunc func(ctx context.Context, plans []*physical.Plan, res sparksim.Resources) ([]float64, error)

// DeadlinePolicy chooses what a deadline miss becomes.
type DeadlinePolicy int

const (
	// FallbackOnDeadline serves the analytical fallback (tagged
	// Degraded) when the deep path misses its deadline. Without a
	// fallback the request fails with ErrDeadline.
	FallbackOnDeadline DeadlinePolicy = iota
	// FailOnDeadline returns ErrDeadline (HTTP 504) even when a
	// fallback exists.
	FailOnDeadline
)

// Config wires a Server.
type Config struct {
	// Deep is the learned estimator. Nil means fallback-only serving
	// (every answer comes from Fallback, untagged — it is the primary).
	Deep EstimateFunc
	// DeepBatch optionally scores candidate sets in one call (one
	// admission slot, one forward pass); nil falls back to looping Deep.
	DeepBatch BatchEstimateFunc
	// Fallback is the always-available analytical estimator (GPSJ). Nil
	// disables degradation: deep failures surface as errors.
	Fallback EstimateFunc

	// Concurrency is the number of requests estimated at once
	// (default GOMAXPROCS).
	Concurrency int
	// QueueDepth is how many admitted requests may wait for a slot
	// beyond Concurrency; 0 rejects as soon as all slots are busy.
	QueueDepth int
	// Deadline is the per-request estimation budget; 0 means none.
	Deadline time.Duration
	// OnDeadline picks between fallback and failure on a deadline miss.
	OnDeadline DeadlinePolicy

	// Faults deterministically injects failures into the deep path
	// (tests and chaos drills); nil injects nothing.
	Faults *FaultConfig

	// Metrics receives the serving telemetry (see NewMetrics); nil
	// serves unobserved.
	Metrics *Metrics
}

// Result is one served estimate.
type Result struct {
	// Cost is the predicted execution cost in seconds.
	Cost float64
	// Source names the estimator that produced Cost: "model",
	// "fallback", or "analytic" (fallback-only server).
	Source string
	// Degraded marks answers served by the fallback because the deep
	// path failed; Reason carries the deep failure.
	Degraded bool
	Reason   string
}

// Server is the robustness boundary around an estimator pair. All methods
// are safe for concurrent use.
type Server struct {
	cfg      Config
	met      *Metrics // never nil; zero value is a no-op set
	slots    chan struct{}
	queued   atomic.Int64
	reqIndex atomic.Uint64
	inflight atomic.Int64
	draining atomic.Bool
}

// New validates cfg and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Deep == nil && cfg.Fallback == nil {
		return nil, errors.New("serve: config needs at least one of Deep or Fallback")
	}
	if cfg.DeepBatch != nil && cfg.Deep == nil {
		return nil, errors.New("serve: DeepBatch requires Deep")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	met := cfg.Metrics
	if met == nil {
		met = &Metrics{} // nil fields: every observation is a no-op
	}
	return &Server{cfg: cfg, met: met, slots: make(chan struct{}, cfg.Concurrency)}, nil
}

// Ready reports whether the server accepts new requests.
func (s *Server) Ready() bool { return !s.draining.Load() }

// Saturated reports whether admission is at capacity: the wait queue is
// full, or — with no queue configured — every concurrency slot is busy.
// A saturated server is still alive (the next request is rejected with
// ErrOverloaded rather than queued), so readiness surfaces the state to
// load balancers before callers start seeing 429s; router-side health
// checking supplies the hysteresis that keeps a momentary spike from
// flapping membership.
func (s *Server) Saturated() bool {
	if s.cfg.QueueDepth > 0 {
		return s.queued.Load() >= int64(s.cfg.QueueDepth)
	}
	return s.inflight.Load() >= int64(s.cfg.Concurrency)
}

// Inflight returns the number of requests currently admitted.
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// Drain stops admitting requests and waits for in-flight ones to finish,
// or for ctx to expire. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain abandoned with %d request(s) in flight: %w",
				s.inflight.Load(), ctx.Err())
		case <-tick.C:
		}
	}
}

// admit claims a concurrency slot, waiting in the bounded queue if all are
// busy. The returned release func must be called exactly once.
func (s *Server) admit(ctx context.Context) (func(), error) {
	if s.draining.Load() {
		s.met.DrainRejects.Inc()
		return nil, ErrDraining
	}
	s.inflight.Add(1)
	s.met.Inflight.Inc()
	release := func() {
		<-s.slots
		s.inflight.Add(-1)
		s.met.Inflight.Dec()
	}
	select {
	case s.slots <- struct{}{}:
		return release, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.inflight.Add(-1)
		s.met.Inflight.Dec()
		s.met.AdmissionRejects.Inc()
		return nil, fmt.Errorf("%w (%d running, %d queued)", ErrOverloaded,
			s.cfg.Concurrency, s.cfg.QueueDepth)
	}
	s.met.Queue.Inc()
	select {
	case s.slots <- struct{}{}:
		s.queued.Add(-1)
		s.met.Queue.Dec()
		return release, nil
	case <-ctx.Done():
		s.queued.Add(-1)
		s.inflight.Add(-1)
		s.met.Queue.Dec()
		s.met.Inflight.Dec()
		return nil, ctx.Err()
	}
}

// Estimate prices one plan under res, applying the full robustness stack:
// admission, deadline, panic isolation, and fallback degradation.
func (s *Server) Estimate(ctx context.Context, p *physical.Plan, res sparksim.Resources) (Result, error) {
	preds, r, err := s.serve(ctx,
		func(dctx context.Context) ([]float64, error) {
			c, err := s.cfg.Deep(dctx, p, res)
			return []float64{c}, err
		},
		func(fctx context.Context) ([]float64, error) {
			c, err := s.cfg.Fallback(fctx, p, res)
			return []float64{c}, err
		})
	if err != nil {
		return Result{}, err
	}
	r.Cost = preds[0]
	return r, nil
}

// Select prices every candidate plan in one admitted request and returns
// the argmin index plus its Result; only finite costs are ranked.
// Degradation applies to the set as a whole: if the deep batch fails (or
// no cost in it is finite), every candidate is priced analytically.
func (s *Server) Select(ctx context.Context, plans []*physical.Plan, res sparksim.Resources) (int, Result, error) {
	if len(plans) == 0 {
		return -1, Result{}, errors.New("serve: empty candidate set")
	}
	deep := func(dctx context.Context) ([]float64, error) {
		if s.cfg.DeepBatch != nil {
			preds, err := s.cfg.DeepBatch(dctx, plans, res)
			if err == nil && len(preds) != len(plans) {
				return nil, fmt.Errorf("%w: batch estimator returned %d prediction(s) for %d plan(s)",
					ErrInternal, len(preds), len(plans))
			}
			return preds, err
		}
		preds := make([]float64, len(plans))
		for i, p := range plans {
			if err := dctx.Err(); err != nil {
				return nil, err
			}
			c, err := s.cfg.Deep(dctx, p, res)
			if err != nil {
				return nil, err
			}
			preds[i] = c
		}
		return preds, nil
	}
	fallback := func(fctx context.Context) ([]float64, error) {
		preds := make([]float64, len(plans))
		for i, p := range plans {
			if err := fctx.Err(); err != nil {
				return nil, err
			}
			c, err := s.cfg.Fallback(fctx, p, res)
			if err != nil {
				return nil, err
			}
			preds[i] = c
		}
		return preds, nil
	}
	preds, r, err := s.serve(ctx, deep, fallback)
	if err != nil {
		return -1, Result{}, err
	}
	best := metrics.ArgminFinite(preds) // >= 0: guarded rejects a set with no finite cost
	r.Cost = preds[best]
	return best, r, nil
}

// outcome carries a guarded estimator call's result across goroutines.
type outcome struct {
	preds []float64
	err   error
}

// serve runs the shared request pipeline. deep and fallback produce the
// same-shaped prediction vector; either may be abandoned mid-flight.
func (s *Server) serve(ctx context.Context, deep, fallback func(context.Context) ([]float64, error)) ([]float64, Result, error) {
	release, err := s.admit(ctx)
	if err != nil {
		return nil, Result{}, err
	}
	defer release()
	idx := s.reqIndex.Add(1)
	start := time.Now()
	served := func() { s.met.PredictLatency.Observe(time.Since(start).Seconds()) }

	// Fallback-only server: the analytical model is the primary.
	if s.cfg.Deep == nil {
		preds, err := s.guarded(ctx, 0, fallback)
		if err != nil {
			return nil, Result{}, err
		}
		served()
		return preds, Result{Source: "analytic"}, nil
	}

	dctx := ctx
	if s.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		defer cancel()
	}
	preds, deepErr := s.guarded(dctx, idx, deep)
	if deepErr == nil {
		served()
		return preds, Result{Source: "model"}, nil
	}
	// The caller itself is gone: degrading would price a plan nobody
	// will read. Propagate the cancellation.
	if ctx.Err() != nil {
		return nil, Result{}, ctx.Err()
	}
	missed := errors.Is(deepErr, context.DeadlineExceeded)
	if missed {
		s.met.DeadlineExpiries.Inc()
	}
	if missed && s.cfg.OnDeadline == FailOnDeadline {
		return nil, Result{}, fmt.Errorf("%w (budget %v)", ErrDeadline, s.cfg.Deadline)
	}
	if s.cfg.Fallback == nil {
		if missed {
			return nil, Result{}, fmt.Errorf("%w (budget %v, no fallback)", ErrDeadline, s.cfg.Deadline)
		}
		return nil, Result{}, deepErr
	}
	preds, fbErr := s.guarded(ctx, 0, fallback)
	if fbErr != nil {
		// Both estimators down; the deep failure is the one to report.
		return nil, Result{}, deepErr
	}
	s.met.Degraded.Inc()
	served()
	return preds, Result{Source: "fallback", Degraded: true, Reason: deepErr.Error()}, nil
}

// guarded runs fn behind the recover boundary and the deadline select. A
// result with no finite prediction is a failure of fn like a panic is
// (ErrInternal): a NaN cost cannot be ranked, nor written as JSON.
// Faults are applied first (idx 0 disables them — the fallback path must
// stay clean so degradation is always available). When the context
// expires, the call is abandoned: fn keeps running on its goroutine until
// its own cooperative cancellation check fires, and its eventual result
// is discarded.
func (s *Server) guarded(ctx context.Context, idx uint64, fn func(context.Context) ([]float64, error)) ([]float64, error) {
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{err: fmt.Errorf("%w: panic: %v", ErrInternal, r)}
			}
		}()
		if idx != 0 {
			if delay, errF, panicF := s.cfg.Faults.Fires(idx); delay || errF || panicF {
				if delay {
					s.met.Faults.With("delay").Inc()
				}
				if errF {
					s.met.Faults.With("error").Inc()
				}
				if panicF {
					s.met.Faults.With("panic").Inc()
				}
			}
			if err := s.cfg.Faults.apply(ctx, idx); err != nil {
				done <- outcome{err: err}
				return
			}
		}
		preds, err := fn(ctx)
		if err == nil && metrics.ArgminFinite(preds) < 0 {
			preds, err = nil, fmt.Errorf("%w: no finite prediction among %d", ErrInternal, len(preds))
		}
		done <- outcome{preds: preds, err: err}
	}()
	select {
	case o := <-done:
		return o.preds, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
