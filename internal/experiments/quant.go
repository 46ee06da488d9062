package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"raal/internal/core"
	"raal/internal/metrics"
)

// QuantResult is the quantized-inference report: warm batch-predict
// throughput per precision at the BenchmarkPredict shape, the speedups
// against the float64 reference, and the accuracy cost as the p90
// q-error delta the serving gate examines. Metrics carries the scalar
// half in the machine-readable form cmd/benchdiff gates per-metric.
type QuantResult struct {
	Benchmarks []MicroBench       `json:"benchmarks"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Print renders the per-precision table.
func (r *QuantResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%-18s %14s %12s %12s %10s %12s\n",
		"benchmark", "ns/op", "B/op", "allocs/op", "speedup", "qdelta p90")
	for _, b := range r.Benchmarks {
		prec := b.Name[len("predict/"):]
		speedup, qd := "1.00x", "-"
		if v, ok := r.Metrics["speedup/"+prec]; ok {
			speedup = fmt.Sprintf("%.2fx", v)
		}
		if v, ok := r.Metrics["qdelta_p90/"+prec]; ok {
			qd = fmt.Sprintf("%.4f", v)
		}
		fmt.Fprintf(w, "%-18s %14.0f %12.0f %12.1f %10s %12s\n",
			b.Name, b.NsOp, b.BytesOp, b.AllocsOp, speedup, qd)
	}
}

// JSON writes the machine-readable form consumed by cmd/benchdiff.
func (r *QuantResult) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Quant benchmarks the float32 inference path against the float64
// reference on the micro corpus: a small RAAL model is trained in f64 and
// converted to f32, and each precision's warm batch predict is measured
// serially (workers=1 isolates kernel throughput from pool scheduling).
// The accuracy side reports the p90 q-error delta of the f32 network
// against the f64 predictions — the exact statistic the serving gate
// (VerifyQuantized) bounds.
func Quant(opt Options) (*QuantResult, error) {
	samples := microDataset(512, 77)
	cfg := core.DefaultConfig(microSem, microNodes)
	cfg.Hidden = 16
	cfg.K = 8
	cfg.Seed = opt.Seed
	tc := core.DefaultTrainConfig()
	tc.Epochs = 1
	tc.Batch = 16
	tc.LR = 5e-3
	tc.Seed = opt.Seed

	m, _, err := core.Train(samples[:128], core.RAAL(), cfg, tc)
	if err != nil {
		return nil, err
	}
	qm32, err := m.Quantize(core.PrecisionF32)
	if err != nil {
		return nil, err
	}

	po := core.PredictOpts{Workers: 1, ChunkSize: 32}
	predict := map[string]func() []float64{
		"f64": func() []float64 { return m.PredictWith(samples, po) },
		"f32": func() []float64 { return qm32.PredictWith(samples, po) },
	}

	res := &QuantResult{Metrics: map[string]float64{}}
	ref := predict["f64"]()
	nsOp := map[string]float64{}
	for _, prec := range []string{"f64", "f32"} {
		run := predict[prec]
		run() // warm the tape pool before timing
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
		mb := toMicroBench("predict/"+prec, br)
		res.Benchmarks = append(res.Benchmarks, mb)
		nsOp[prec] = mb.NsOp
		if prec == "f64" {
			continue
		}
		got := run()
		res.Metrics["qdelta_p90/"+prec] = metrics.Quantile(metrics.QErrorDeltas(ref, got), core.GateQuantile)
		if mb.NsOp > 0 {
			res.Metrics["speedup/"+prec] = nsOp["f64"] / mb.NsOp
		}
	}
	return res, nil
}
