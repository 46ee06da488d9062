package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"raal/internal/autodiff"
	"raal/internal/encode"
)

// drainTapes empties the process's tape pool, so the next leases build
// fresh tapes.
func drainTapes() {
	tapes.mu.Lock()
	defer tapes.mu.Unlock()
	tapes.inference, tapes.recording = nil, nil
}

// fitRun is what a Fit leaves behind: its loss curve and the trained
// weights, as bits.
type fitRun struct {
	loss    []float64
	weights []uint64
}

func fit(samples []*encode.Sample, v Variant, cfg Config, tc TrainConfig) (*Model, fitRun, error) {
	m, res, err := Train(samples, v, cfg, tc)
	if err != nil {
		return nil, fitRun{}, err
	}
	r := fitRun{loss: res.LossCurve}
	for _, p := range m.Params() {
		for _, w := range p.Value().Data {
			r.weights = append(r.weights, math.Float64bits(w))
		}
	}
	return m, r, nil
}

func fitOn(t *testing.T, samples []*encode.Sample, v Variant, cfg Config, tc TrainConfig) (*Model, fitRun) {
	t.Helper()
	m, r, err := fit(samples, v, cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	return m, r
}

func sameFit(t *testing.T, what string, got, want fitRun) {
	t.Helper()
	for e := range want.loss {
		if math.Float64bits(got.loss[e]) != math.Float64bits(want.loss[e]) {
			t.Fatalf("%s: epoch %d loss %v, want %v", what, e, got.loss[e], want.loss[e])
		}
	}
	for i := range want.weights {
		if got.weights[i] != want.weights[i] {
			t.Fatalf("%s: weight %d is %v, want %v", what, i,
				math.Float64frombits(got.weights[i]), math.Float64frombits(want.weights[i]))
		}
	}
}

func samePredictions(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: prediction %d %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestPoisonedTapesBitIdentical holds arena contents to "unspecified":
// with every Reset filling a tape's slabs with NaN, a Fit — its shards run
// one after another on one goroutine (GOMAXPROCS 1), and on two at once —
// and a two-worker PredictCtx, each on pooled tapes last used by a model of
// another shape, must equal the same call on fresh, unpoisoned tapes bit
// for bit.
func TestPoisonedTapesBitIdentical(t *testing.T) {
	samples := synthDataset(40, 31)
	target := testConfig()
	others := []struct {
		name string
		v    Variant
		cfg  Config
	}{
		{"DefaultConfig", RAAL(), DefaultConfig(tSem, tNodes)},
		{"CNN", RAAC(), testConfig()},
	}
	tc := quickTrain()
	tc.Epochs = 2

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name  string
		procs int
	}{{"serial", 1}, {"sharded", 2}} {
		t.Run(c.name, func(t *testing.T) {
			runtime.GOMAXPROCS(c.procs)
			drainTapes()
			m, want := fitOn(t, samples, RAAL(), target, tc)
			wantPred := predictOn(m, samples, schedOpts{workers: 1})

			autodiff.PoisonOnReset(true)
			defer autodiff.PoisonOnReset(false)
			for _, o := range others {
				drainTapes()
				prev, _ := fitOn(t, samples, o.v, o.cfg, tc)
				_, got := fitOn(t, samples, RAAL(), target, tc)
				sameFit(t, "Fit after "+o.name, got, want)

				predictOn(prev, samples, schedOpts{workers: 2, chunk: 8})
				samePredictions(t, "PredictCtx after "+o.name, predictOn(m, samples, schedOpts{workers: 2, chunk: 8}), wantPred)
			}
		})
	}
}

// TestSecondTrainAllocatesNoSlab: a fresh model's Train leases the
// recording tape the previous Train warmed, so training the same samples
// again allocates no arena slab at all.
func TestSecondTrainAllocatesNoSlab(t *testing.T) {
	samples := synthDataset(60, 32)
	tc := quickTrain()
	tc.Epochs = 2
	fitOn(t, samples, RAAL(), testConfig(), tc)
	before := autodiff.SlabAllocs()
	fitOn(t, samples, RAAL(), testConfig(), tc)
	if got := autodiff.SlabAllocs() - before; got != 0 {
		t.Fatalf("the second Train allocated %d arena slabs, want 0", got)
	}
}

// TestTapePoolBounded: however many tapes are leased at once, the pool
// keeps at most maxPooledTapes of each kind. A parked tape has been Reset,
// which drops every reference to the leaves of its last pass
// (autodiff.TestResetPinsNoLeaf).
func TestTapePoolBounded(t *testing.T) {
	drainTapes()
	for _, record := range []bool{false, true} {
		leased := make([]*autodiff.Tape, 2*maxPooledTapes)
		for i := range leased {
			leased[i] = LeaseTape(record)
			if leased[i].ForwardOnly() == record {
				t.Fatalf("LeaseTape(%v) returned a tape with ForwardOnly %v", record, leased[i].ForwardOnly())
			}
		}
		for _, tp := range leased {
			ReturnTape(tp)
		}
		if got := len(*tapes.free(record)); got != maxPooledTapes {
			t.Fatalf("recording=%v: pool keeps %d tapes after %d returns, want %d", record, got, len(leased), maxPooledTapes)
		}
	}
}

// TestTapePoolConcurrentFitsAndPredict runs two Fits and a multi-worker
// PredictCtx, on three models, at once through the process's pool: each
// must equal its own lone run bit for bit, whichever tapes it leased and
// whoever warmed them.
func TestTapePoolConcurrentFitsAndPredict(t *testing.T) {
	samples := synthDataset(48, 33)
	tc := quickTrain()
	tc.Epochs = 2

	_, wantA := fitOn(t, samples, RAAL(), testConfig(), tc)
	_, wantB := fitOn(t, samples, RAAC(), testConfig(), tc)
	m, _ := fitOn(t, samples[:16], NALSTM(), testConfig(), tc)
	wantP := predictOn(m, samples, schedOpts{workers: 1})

	var gotA, gotB fitRun
	var errA, errB error
	var gotP [][]float64
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		_, gotA, errA = fit(samples, RAAL(), testConfig(), tc)
	}()
	go func() {
		defer wg.Done()
		_, gotB, errB = fit(samples, RAAC(), testConfig(), tc)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			gotP = append(gotP, predictOn(m, samples, schedOpts{workers: 3, chunk: 5}))
		}
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	sameFit(t, "RAAL Fit", gotA, wantA)
	sameFit(t, "RAAC Fit", gotB, wantB)
	for _, p := range gotP {
		samePredictions(t, "PredictCtx", p, wantP)
	}
}
