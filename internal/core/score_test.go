package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"raal/internal/encode"
	"raal/internal/telemetry"
)

// scoreCase is a batch priced through score's build: rows price a few
// shared plan parts under their own resource vectors, scattered so rows of
// one part are not adjacent, and half the parts carry a length hint that
// disagrees with their active length.
type scoreCase struct {
	parts   []*encode.Sample
	samples []*encode.Sample // samples[i] is what build(i) returns
	hints   []int
}

func newScoreCase(seed int64, nParts, rows int) scoreCase {
	rng := rand.New(rand.NewSource(seed))
	c := scoreCase{parts: make([]*encode.Sample, nParts)}
	partHint := make([]int, nParts)
	for j := range c.parts {
		c.parts[j] = maskedSample(rng)
		partHint[j] = activeLen(c.parts[j])
		if j%2 == 1 {
			partHint[j] = tNodes + 1 - partHint[j] // wrong, but still one per part
		}
	}
	partHint[0] = 0 // a hint below 1 counts as 1
	for i := 0; i < rows; i++ {
		j := i * 7 % nParts
		c.samples = append(c.samples, c.parts[j].WithResource(maskedSample(rng).Resource))
		c.hints = append(c.hints, partHint[j])
	}
	return c
}

// scoreOn prices c through score on schedule o, counting build's calls per
// row into calls.
func scoreOn(m *Model, ctx context.Context, c scoreCase, o schedOpts, calls []atomic.Int32) ([]float64, error) {
	return m.score(ctx, c.hints, func(i int) *encode.Sample {
		calls[i].Add(1)
		return c.samples[i]
	}, o)
}

// TestScoreBuildMatchesSerialSchedule: pricing samples through a build
// called on the scoring workers, grouped by length hints that need not be
// the samples' active lengths, gives the one-worker schedule's bits at
// every worker count and chunk size. build runs once per row, and rows
// that share a plan part still share its prefix inside a chunk: one
// prefix computed per part, the other rows reused.
func TestScoreBuildMatchesSerialSchedule(t *testing.T) {
	const nParts, rows = 10, 90
	c := newScoreCase(11, nParts, rows)
	for _, v := range []Variant{RAAL(), RAAC()} {
		m := NewModel(v, testConfig())
		m.Instrument(NewInstrumentation(telemetry.NewRegistry()))
		want := predictOn(m, c.samples, schedOpts{workers: 1})
		for _, o := range []schedOpts{
			{workers: 1}, {workers: 2}, {workers: 8},
			{workers: 2, chunk: 5}, {workers: 8, chunk: 3}, {workers: 2, noBucket: true},
		} {
			ins := m.instr
			computed, reused := ins.PrefixComputed.Value(), ins.PrefixReused.Value()
			calls := make([]atomic.Int32, rows)
			got, err := scoreOn(m, context.Background(), c, o, calls)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %+v: row %d scored %v, one-worker schedule %v", v.Name, o, i, got[i], want[i])
				}
				if n := calls[i].Load(); n != 1 {
					t.Fatalf("%s %+v: build(%d) ran %d times, want once", v.Name, o, i, n)
				}
			}
			if o.chunk == 0 && !o.noBucket {
				if d := ins.PrefixComputed.Value() - computed; d != nParts {
					t.Errorf("%s %+v: %d prefixes computed, want one per part (%d)", v.Name, o, d, nParts)
				}
				if d := ins.PrefixReused.Value() - reused; d != rows-nParts {
					t.Errorf("%s %+v: %d rows reused a prefix, want %d", v.Name, o, d, rows-nParts)
				}
			}
		}
	}
}

// TestScoreCancelledMidBatch: a context cancelled from inside build, while
// the first chunk is being built, stops the batch at the next chunk
// boundary with ctx.Err() and no predictions, whatever the worker count;
// no chunk's samples are built twice. The package's goroutine census then
// finds every worker gone.
func TestScoreCancelledMidBatch(t *testing.T) {
	c := newScoreCase(12, 10, 60)
	m := NewModel(RAAL(), testConfig())
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := make([]atomic.Int32, len(c.samples))
		preds, err := m.score(ctx, c.hints, func(i int) *encode.Sample {
			cancel()
			calls[i].Add(1)
			return c.samples[i]
		}, schedOpts{workers: workers, chunk: 2})
		cancel()
		if !errors.Is(err, context.Canceled) || preds != nil {
			t.Fatalf("workers %d: got %d predictions, err %v; want none and context.Canceled", workers, len(preds), err)
		}
		built := 0
		for i := range calls {
			if n := calls[i].Load(); n > 1 {
				t.Fatalf("workers %d: build(%d) ran %d times", workers, i, n)
			}
			built += int(calls[i].Load())
		}
		if built > 2*workers {
			t.Errorf("workers %d: %d samples built after the cancel, want at most one chunk per worker", workers, built)
		}
	}
}

// TestScorePanicReachesCaller: a panic in build, on whichever worker ran
// it, is raised again on the caller's goroutine after every worker has
// stopped, so a recover around the call (the serving layer's) still
// catches it.
func TestScorePanicReachesCaller(t *testing.T) {
	c := newScoreCase(13, 10, 60)
	m := NewModel(RAAL(), testConfig())
	for _, workers := range []int{1, 2, 8} {
		func() {
			defer func() {
				if r := recover(); r != "bad plan" {
					t.Errorf("workers %d: recovered %v, want the build's panic", workers, r)
				}
			}()
			m.score(context.Background(), c.hints, func(i int) *encode.Sample {
				if i == 31 {
					panic("bad plan")
				}
				return c.samples[i]
			}, schedOpts{workers: workers, chunk: 4})
		}()
	}
}
