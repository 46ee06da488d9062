package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

var errNoRecords = errors.New("experiments: lab has no records")

// Report is anything an experiment can print.
type Report interface {
	Print(w io.Writer)
}

// JSONer is implemented by reports that can export machine-readable data;
// cmd/raalbench -json writes these as BENCH_<name>.json.
type JSONer interface {
	JSON(w io.Writer) error
}

// Runner executes one named experiment.
type Runner struct {
	Name        string
	Description string
	// NeedsLab is true when the experiment consumes a prepared Lab.
	NeedsLab bool
	RunLab   func(lab *Lab) (Report, error)
	Run      func(opt Options) (Report, error)
}

// Registry lists every reproducible table and figure.
func Registry() []Runner {
	return []Runner{
		{Name: "fig1", Description: "default vs RAAL-tuned plan choice on 20 queries", NeedsLab: true,
			RunLab: func(l *Lab) (Report, error) { return Fig1(l) }},
		{Name: "fig2", Description: "plan cost vs executor memory (4 Sec-III queries)",
			Run: func(o Options) (Report, error) { return Fig2(o.Scale, o.Seed) }},
		{Name: "table4", Description: "module ablation: RAAL vs NE-LSTM vs NA-LSTM vs RAAC", NeedsLab: true,
			RunLab: func(l *Lab) (Report, error) { return Ablation(l) }},
		{Name: "fig6", Description: "training loss curves (same run as table4)", NeedsLab: true,
			RunLab: func(l *Lab) (Report, error) { return Ablation(l) }},
		{Name: "table5", Description: "RAAL vs TLSTM under fixed resources",
			Run: func(o Options) (Report, error) { return Table5(o) }},
		{Name: "table6", Description: "RAAL vs GPSJ analytical model", NeedsLab: true,
			RunLab: func(l *Lab) (Report, error) { return Table6(l) }},
		{Name: "table7", Description: "resource-aware attention on/off, all architectures", NeedsLab: true,
			RunLab: func(l *Lab) (Report, error) { return Table7(l) }},
		{Name: "fig7", Description: "actual vs estimated scatter, with/without resources", NeedsLab: true,
			RunLab: func(l *Lab) (Report, error) { return Fig7(l) }},
		{Name: "fig8", Description: "adaptability across executor memory sizes", NeedsLab: true,
			RunLab: func(l *Lab) (Report, error) { return Fig8(l) }},
		{Name: "table8", Description: "training time and error vs training-set size", NeedsLab: true,
			RunLab: func(l *Lab) (Report, error) { return Table8(l) }},
		{Name: "table9", Description: "online estimation latency per 100 queries", NeedsLab: true,
			RunLab: func(l *Lab) (Report, error) { return Table9(l) }},
		{Name: "enc", Description: "extra: word2vec vs one-hot node encoding", NeedsLab: true,
			RunLab: func(l *Lab) (Report, error) { return EncAblation(l) }},
		{Name: "sim", Description: "extra: simulator mechanism ablation (memory sensitivity)", NeedsLab: true,
			RunLab: func(l *Lab) (Report, error) { return SimAblation(l) }},
		{Name: "transfer", Description: "extra: cold-start transfer IMDB→TPC-H (paper future work)",
			Run: func(o Options) (Report, error) { return Transfer(o) }},
		{Name: "aqe", Description: "extra: static default vs adaptive execution vs RAAL choice", NeedsLab: true,
			RunLab: func(l *Lab) (Report, error) { return AQE(l) }},
		{Name: "drift", Description: "extra: cluster migration + incremental retraining",
			Run: func(o Options) (Report, error) { return Drift(o) }},
		{Name: "qerror", Description: "extra: cardinality q-error by join depth", NeedsLab: true,
			RunLab: func(l *Lab) (Report, error) { return QError(l) }},
		{Name: "online", Description: "extra: seeded drift drill — workload shift, retrain, shadow-score, promote",
			Run: func(o Options) (Report, error) { return Online(o) }},
	}
}

// Names returns the sorted experiment names.
func Names() []string {
	rs := Registry()
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.Name
	}
	sort.Strings(names)
	return names
}

// Lookup finds a runner by name.
func Lookup(name string) (Runner, error) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}
