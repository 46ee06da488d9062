package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tiny drives the same code as full in a few seconds.
var tiny = params{
	scale:         0.02,
	corpusQueries: 20,
	corpusEpochs:  1,
	setups:        1,
	hotSet:        4,
	selectPool:    32,
	advisePlans:   8,
	oversample:    map[string]int{wlRoute: 4, wlSelect: 1, wlAdvise: 2},
	offQueries:    12,
	offEpochs:     1,
	offCorpora:    2,
	window:        map[string]int{wlRoute: 24, wlSelect: 25, wlAdvise: 5, wlOffline: 1},
	warmup:        map[string]int{wlRoute: 2, wlSelect: 2, wlAdvise: 1, wlOffline: 1},
	traced:        map[string]int{wlRoute: 24, wlSelect: 25, wlAdvise: 5, wlOffline: 1},
	checkEvery:    4,
	probeN:        4,
}

// benchmarkJSON is the part of ../BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the code %v", names, workloadNames)
	}

	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		var want []metricDef
		for _, d := range declared {
			want = append(want, metricDef{d.Name, d.Unit})
		}
		if !reflect.DeepEqual(want, defs) {
			t.Errorf("%s: BENCHMARK.json has %v, the code %v", kind, want, defs)
		}
		for _, d := range defs {
			if !valid.MatchString(d.name) {
				t.Errorf("%s metric name %q is not a valid name", kind, d.name)
			}
			if seen[d.name] {
				t.Errorf("metric name %q is used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
}

// TestEveryWorkloadPrintsEveryMetric runs each workload both ways through
// the command's own entry point and checks the result line.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer()} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", name, "-windows", "2", "-trace", trace, "-out", t.TempDir()}
				if code := realMain(tiny, args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit code %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatal(err)
				}
				if len(raw) != 4 {
					t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", raw)
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					mv, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case mv.Unit != d.unit:
						t.Errorf("metric %s has unit %q, want %q", d.name, mv.Unit, d.unit)
					case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
						t.Errorf("metric %s is %v", d.name, mv.Value)
					case trace == "0" && mv.Value <= 0:
						t.Errorf("gated metric %s is %v; a gated metric is never 0", d.name, mv.Value)
					}
				}
				if trace == "1" {
					if cov := res.Metrics["trace.coverage"].Value; cov < 0.9 {
						t.Errorf("trace.coverage %v, want at least 0.9", cov)
					}
					if _, err := os.Stat(args[len(args)-1] + "/trace_" + name + ".json"); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
			})
		}
	}
}

// inputs returns what a set-up workload will send, in draw-index order.
func inputs(w workload) any {
	switch w := w.(type) {
	case *routeHot:
		return w.bodies
	case *selectCold:
		return w.queries
	case *adviseGrid:
		return w.queries
	case *offline:
		return w.order
	}
	return nil
}

// TestSameSeedSameRequests: the request sequence is draw() over the set-up
// inputs, and draw is a pure function, so equal inputs mean equal sequences.
func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var got [3]any
			var re [3]float64
			for i, seed := range []int64{7, 7, 8} {
				w, _, err := setUp(tiny, options{workload: name, seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				got[i], re[i] = inputs(w), w.heldoutRE()
				w.close()
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("two set-ups with seed 7 differ:\n%v\n%v", got[0], got[1])
			}
			if name != wlOffline && reflect.DeepEqual(got[0], got[2]) {
				t.Errorf("seeds 7 and 8 generate the same inputs")
			}
			if re[0] != re[1] || re[0] != re[2] {
				t.Errorf("heldout_re differs between runs: %v", re)
			}
		})
	}
}

// TestDrawVisitsEveryInput: n consecutive draws are a permutation of the
// inputs, for every pool size in use, so a cycle weighs each input once.
func TestDrawVisitsEveryInput(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 25, 32, 64, 512, 4096} {
		for c := 0; c < 3; c++ {
			seen := make([]bool, n)
			for k := 0; k < n; k++ {
				seen[draw(7, c, k, n)] = true
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("n=%d client %d: input %d never drawn in %d ops", n, c, i, n)
				}
			}
		}
	}
}
