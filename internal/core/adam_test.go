package core

import (
	"math"
	"runtime"
	"testing"

	"raal/internal/nn"
)

// TestAdamScheduleBitIdentical: Adam.Step updates two halves of the
// parameters on two goroutines. Forced onto one (nn.AdamOnOneGoroutine), a
// Fit must give the same loss curve, weights and optimizer moments, bit
// for bit, whether its shards run one after another on one goroutine
// (GOMAXPROCS 1) or on two at once.
func TestAdamScheduleBitIdentical(t *testing.T) {
	samples := synthDataset(60, 21)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name  string
		procs int
	}{{"serial", 1}, {"sharded", 2}} {
		t.Run(c.name, func(t *testing.T) {
			runtime.GOMAXPROCS(c.procs)
			run := func(one bool) (fitRun, nn.AdamState) {
				nn.AdamOnOneGoroutine(one)
				defer nn.AdamOnOneGoroutine(false)
				tc := quickTrain()
				tc.Epochs = 3
				tc.State = NewTrainState()
				_, r := fitOn(t, samples, RAAL(), DefaultConfig(tSem, tNodes), tc)
				return r, tc.State.Opt
			}
			want, wantOpt := run(true)
			got, gotOpt := run(false)
			sameFit(t, "two-goroutine Adam", got, want)
			if gotOpt.T != wantOpt.T || len(gotOpt.M) != len(wantOpt.M) || len(wantOpt.M) == 0 {
				t.Fatalf("moments: step %d of %d parameters, want step %d of %d", gotOpt.T, len(gotOpt.M), wantOpt.T, len(wantOpt.M))
			}
			for name, wm := range wantOpt.M {
				for which, pair := range [][2][]float64{{gotOpt.M[name], wm}, {gotOpt.V[name], wantOpt.V[name]}} {
					g, w := pair[0], pair[1]
					if len(g) != len(w) {
						t.Fatalf("%s moment %d: %d values, want %d", name, which+1, len(g), len(w))
					}
					for i := range w {
						if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
							t.Fatalf("%s moment %d [%d] = %v, want %v", name, which+1, i, g[i], w[i])
						}
					}
				}
			}
		})
	}
}
