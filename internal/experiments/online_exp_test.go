package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// results/BENCH_online.json is documented as reproducing bit for bit under
// -seed 1; this is the check. Wall time (ns_op) is the one field that may
// differ run to run.
func TestOnlineReproducesCommittedReport(t *testing.T) {
	data, err := os.ReadFile("../../results/BENCH_online.json")
	if err != nil {
		t.Fatal(err)
	}
	var want OnlineResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got, err := Online(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != len(want.Benchmarks) {
		t.Fatalf("%d benchmark rows, committed report has %d", len(got.Benchmarks), len(want.Benchmarks))
	}
	for i := range want.Benchmarks {
		g, w := got.Benchmarks[i], want.Benchmarks[i]
		g.NsOp, w.NsOp = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Errorf("row %d differs from results/BENCH_online.json:\n got %+v\nwant %+v", i, g, w)
		}
	}
}
