package experiments

import (
	"bytes"
	"math"
	"testing"
)

func TestFig1TunedBeatsOrMatchesDefault(t *testing.T) {
	lab := quickLab(t)
	r, err := Fig1(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 20 {
		t.Fatalf("want 20 queries, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.DefaultSec <= 0 || row.TunedSec <= 0 {
			t.Fatalf("non-positive time: %+v", row)
		}
	}
	// The tuned choice selects among candidates including the default, so
	// in aggregate it should not exceed the default's total by more than
	// noise even under a quick model (it reads about 0.67× here).
	if r.TotalTuned() > r.TotalDefault()*1.05 {
		t.Fatalf("tuned total %.1f should not exceed default %.1f",
			r.TotalTuned(), r.TotalDefault())
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
}

func TestFig7ScatterShapes(t *testing.T) {
	lab := quickLab(t)
	r, err := Fig7(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.WithRes) != len(lab.TestSamples) || len(r.WithoutRes) != len(lab.TestSamples) {
		t.Fatalf("scatter sizes %d/%d, want %d", len(r.WithRes), len(r.WithoutRes), len(lab.TestSamples))
	}
	for _, p := range r.WithRes {
		if p.Actual <= 0 || math.IsNaN(p.Estimated) {
			t.Fatalf("bad point %+v", p)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
}

func TestTable7Shapes(t *testing.T) {
	lab := quickLab(t)
	r, err := Table7(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("want 4 architectures, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if math.IsNaN(row.With.MSE) || math.IsNaN(row.Without.MSE) {
			t.Fatalf("%s: NaN metrics", row.Name)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
}

func TestTable5RAALvsTLSTM(t *testing.T) {
	opt := QuickOptions()
	opt.NumQueries = 40
	opt.Epochs = 6
	r, err := Table5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(r.RAAL.MSE) || math.IsNaN(r.TLSTM.MSE) {
		t.Fatalf("NaN metrics: %+v", r)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
}

func TestEncAblationShapes(t *testing.T) {
	lab := quickLab(t)
	r, err := EncAblation(lab)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(r.Word2Vec.MSE) || math.IsNaN(r.OneHot.MSE) {
		t.Fatalf("NaN metrics: %+v", r)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
}

func TestTable9GPSJNote(t *testing.T) {
	// GPSJ's absolute latency differs from the paper (our analytical walk
	// is trivially cheap); the learned models' ms-scale batched inference
	// is the reproducible claim.
	lab := quickLab(t)
	r, err := Table9(lab)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Model == "RAAL" && row.MsPer100 > 10_000 {
			t.Fatalf("RAAL inference absurdly slow: %v ms/100", row.MsPer100)
		}
	}
}
