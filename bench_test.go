package raal

// One benchmark per table and figure of the paper's evaluation (Sec. V),
// wrapping the internal/experiments harness. Run:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its experiment end to end on shared
// quick-size settings (see EXPERIMENTS.md for the full-size runs driven by
// cmd/raalbench). b.N loops re-run the experiment; the interesting output
// is the experiment's own report, which the benchmarks verify for shape.

import (
	"context"
	"sync"
	"testing"

	"raal/internal/core"
	"raal/internal/experiments"
)

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
	benchErr  error
)

func sharedBenchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchOnce.Do(func() {
		opt := experiments.QuickOptions()
		opt.NumQueries = 100
		opt.Epochs = 10
		benchLab, benchErr = experiments.NewLab(opt)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchLab
}

func BenchmarkFig1DefaultVsTuned(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(lab)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 20 {
			b.Fatalf("want 20 queries, got %d", len(r.Rows))
		}
		if r.TotalTuned() > r.TotalDefault()*1.05 {
			b.Fatalf("tuned total %.1f should not exceed default %.1f",
				r.TotalTuned(), r.TotalDefault())
		}
	}
}

func BenchmarkFig2MemoryImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(0.2, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkTable4Ablation(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablation(lab)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 4 {
			b.Fatal("want 4 variants")
		}
	}
}

func BenchmarkFig6LossCurves(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablation(lab)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Curves) != 4 {
			b.Fatal("want 4 curves")
		}
	}
}

func BenchmarkTable5VsTLSTM(b *testing.B) {
	opt := experiments.QuickOptions()
	opt.NumQueries = 80
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(opt)
		if err != nil {
			b.Fatal(err)
		}
		_ = r.RAAL
	}
}

func BenchmarkTable6VsGPSJ(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table6(lab)
		if err != nil {
			b.Fatal(err)
		}
		if r.GPSJ.MSE <= r.RAAL.MSE {
			b.Fatalf("GPSJ (%.3f) should not beat RAAL (%.3f) on MSE", r.GPSJ.MSE, r.RAAL.MSE)
		}
	}
}

func BenchmarkTable7ResourceAttention(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table7(lab)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 4 {
			b.Fatal("want 4 architectures")
		}
	}
}

func BenchmarkFig7Scatter(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(lab)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.WithRes) == 0 {
			b.Fatal("no scatter points")
		}
	}
}

func BenchmarkFig8Adaptability(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(lab)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatal("no environments")
		}
	}
}

func BenchmarkTable8TrainingScale(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table8(lab)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) < 3 {
			b.Fatal("too few size levels")
		}
	}
}

func BenchmarkTable9Inference(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table9(lab)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 3 {
			b.Fatal("want 3 models")
		}
	}
}

func BenchmarkEncodingAblation(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EncAblation(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimAblation(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SimAblation(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAQEComparison(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AQE(lab)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 20 {
			b.Fatal("want 20 queries")
		}
	}
}

func BenchmarkDriftRetraining(b *testing.B) {
	opt := experiments.QuickOptions()
	opt.NumQueries = 60
	opt.Epochs = 10
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Drift(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransferColdStart(b *testing.B) {
	opt := experiments.QuickOptions()
	opt.NumQueries = 60
	opt.Epochs = 10
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Transfer(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the hot paths.

func BenchmarkCostModelInference(b *testing.B) {
	lab := sharedBenchLab(b)
	model, _, err := lab.TrainVariant(RAAL())
	if err != nil {
		b.Fatal(err)
	}
	samples := lab.TestSamples
	if len(samples) > 64 {
		samples = samples[:64]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.PredictCtx(context.Background(), samples, core.PredictOpts{})
	}
}

func BenchmarkSimulatorEstimate(b *testing.B) {
	lab := sharedBenchLab(b)
	if len(lab.TestRecs) == 0 {
		b.Skip("no records")
	}
	rec := lab.TestRecs[0]
	sys, err := Open(IMDB, 0.03, 1)
	if err != nil {
		b.Fatal(err)
	}
	res := DefaultResources()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Cost(rec.Plan, res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanEnumeration(b *testing.B) {
	sys, err := Open(IMDB, 0.03, 1)
	if err != nil {
		b.Fatal(err)
	}
	query := `SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk
		WHERE t.id = mc.movie_id AND t.id = mk.movie_id AND mc.company_id < 100`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Plan(query); err != nil {
			b.Fatal(err)
		}
	}
}
