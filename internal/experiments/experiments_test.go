package experiments

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"
)

var (
	labOnce sync.Once
	labInst *Lab
	labErr  error
)

// quickLab builds one shared small lab for all tests.
func quickLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		labInst, labErr = NewLab(QuickOptions())
	})
	if labErr != nil {
		t.Fatal(labErr)
	}
	return labInst
}

func TestNewLab(t *testing.T) {
	lab := quickLab(t)
	if len(lab.TrainSamples) == 0 || len(lab.TestSamples) == 0 {
		t.Fatalf("empty splits: %d/%d", len(lab.TrainSamples), len(lab.TestSamples))
	}
	if len(lab.TrainSamples) != len(lab.TrainRecs) || len(lab.TestSamples) != len(lab.TestRecs) {
		t.Fatal("records and samples misaligned")
	}
	if len(lab.TrainSamples) < len(lab.TestSamples) {
		t.Fatal("80/20 split inverted")
	}
}

func TestNewLabUnknownBench(t *testing.T) {
	opt := QuickOptions()
	opt.Bench = "mystery"
	if _, err := NewLab(opt); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestFig2Phenomena(t *testing.T) {
	r, err := Fig2(0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Queries) != 4 {
		t.Fatalf("want the paper's 4 queries, got %d", len(r.Queries))
	}
	// Every query must have points for all memory sizes.
	if len(r.Points) < 4*2*8 {
		t.Fatalf("too few points: %d", len(r.Points))
	}
	// Costs must vary with memory for at least one plan series.
	varies := false
	series := map[string][]float64{}
	for _, p := range r.Points {
		k := p.Query + string(rune('0'+p.PlanID))
		series[k] = append(series[k], p.Sec)
	}
	for _, costs := range series {
		for i := 1; i < len(costs); i++ {
			if math.Abs(costs[i]-costs[0]) > 0.01*costs[0] {
				varies = true
			}
		}
	}
	if !varies {
		t.Fatal("memory has no effect on any plan cost")
	}
	changes := r.OptimalPlanChanges()
	if len(changes) != 4 {
		t.Fatalf("OptimalPlanChanges has %d queries", len(changes))
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
}

func TestAblationTable4Fig6(t *testing.T) {
	lab := quickLab(t)
	r, err := Ablation(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("want 4 variants, got %d", len(r.Rows))
	}
	names := map[string]bool{}
	for _, row := range r.Rows {
		names[row.Name] = true
		if math.IsNaN(row.Metrics.MSE) || row.Metrics.MSE < 0 {
			t.Fatalf("%s: bad MSE %v", row.Name, row.Metrics.MSE)
		}
		curve := r.Curves[row.Name]
		if len(curve) != lab.Opt.Epochs {
			t.Fatalf("%s: curve length %d", row.Name, len(curve))
		}
		if curve[len(curve)-1] >= curve[0] {
			t.Fatalf("%s: loss did not decrease: %v", row.Name, curve)
		}
	}
	for _, want := range []string{"RAAL", "NE-LSTM", "NA-LSTM", "RAAC"} {
		if !names[want] {
			t.Fatalf("missing variant %s", want)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
}

func TestTable6GPSJWorse(t *testing.T) {
	lab := quickLab(t)
	r, err := Table6(lab)
	if err != nil {
		t.Fatal(err)
	}
	// The hand-crafted model must lose to the learned one (paper's
	// central claim for Table VI).
	if r.GPSJ.MSE <= r.RAAL.MSE {
		t.Fatalf("GPSJ MSE %v should exceed RAAL %v", r.GPSJ.MSE, r.RAAL.MSE)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
}

func TestFig8Rows(t *testing.T) {
	lab := quickLab(t)
	r, err := Fig8(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("want 6 memory environments, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if math.IsNaN(row.Metrics.RE) {
			t.Fatalf("NaN metrics at %vGB", row.MemGB)
		}
	}
}

func TestTable8Scaling(t *testing.T) {
	lab := quickLab(t)
	r, err := Table8(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 3 {
		t.Fatalf("too few size levels: %d", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].TrainSize <= r.Rows[i-1].TrainSize {
			t.Fatal("train sizes not increasing")
		}
	}
}

func TestTable9Latency(t *testing.T) {
	lab := quickLab(t)
	r, err := Table9(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 models, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MsPer100 <= 0 {
			t.Fatalf("%s latency %v", row.Model, row.MsPer100)
		}
	}
}

func TestSimAblation(t *testing.T) {
	lab := quickLab(t)
	r, err := SimAblation(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 configs, got %d", len(r.Rows))
	}
	// Removing cache and GC must shrink memory sensitivity.
	full := r.Rows[0].SpreadPct
	bare := r.Rows[2].SpreadPct
	if bare >= full {
		t.Fatalf("mechanism-free simulator should be less memory sensitive: %v vs %v", bare, full)
	}
}

func TestRegistryLookup(t *testing.T) {
	want := []string{"aqe", "drift", "enc", "fig1", "fig2", "fig6", "fig7", "fig8", "online",
		"qerror", "sim", "table4", "table5", "table6", "table7", "table8", "table9", "transfer"}
	names := Names()
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("registry names:\n got %v\nwant %v", names, want)
	}
	for _, n := range names {
		r, err := Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		if (r.RunLab != nil) != r.NeedsLab || (r.Run != nil) == r.NeedsLab {
			t.Errorf("%s: NeedsLab=%v but RunLab set=%v, Run set=%v",
				n, r.NeedsLab, r.RunLab != nil, r.Run != nil)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown name should error")
	}
}

func TestOptionsDefaults(t *testing.T) {
	opt := Options{}
	d := opt.withDefaults()
	if d.Bench != "imdb" || d.Epochs == 0 || d.Scale == 0 {
		t.Fatalf("defaults not applied: %+v", d)
	}
}
