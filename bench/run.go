package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64 // measured-phase budget
	windows  int     // >0: measure exactly this many windows instead
	trace    bool
	outDir   string // run reports and traces; "" writes none
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, with exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp says where and how a run's numbers were taken.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	WindowOps  int     `json:"window_ops"`
	Windows    int     `json:"windows"`
	Ops        int     `json:"ops"`
	Samples    int     `json:"latency_samples"`
	Setups     int     `json:"setups"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	Go         string  `json:"go_version"`
	Commit     string  `json:"commit"`
	// RefOpsPerS is the machine-speed probe's median over the run; the
	// P50s are the traced run's untraced and traced op latency.
	RefOpsPerS  float64 `json:"ref_ops_per_s"`
	RefP50Ms    float64 `json:"ref_p50_ms,omitempty"`
	TracedP50Ms float64 `json:"traced_p50_ms,omitempty"`
	// RawOpsPerS and RawP50Ms are ops_per_s and latency_p50_ms as the clock
	// read them, before any window was restated at the reference speed.
	RawOpsPerS float64 `json:"raw_ops_per_s,omitempty"`
	RawP50Ms   float64 `json:"raw_latency_p50_ms,omitempty"`
	// WindowRates is the raw ops/s of each measurement window, in order, and
	// WindowSpeeds the machine speed (probe matmuls/s) around each.
	WindowRates  []float64 `json:"window_ops_per_s,omitempty"`
	WindowSpeeds []float64 `json:"window_ref_ops_per_s,omitempty"`
	Error        string    `json:"first_error,omitempty"`
}

// report is what a run writes to its out directory and standard error: the
// result plus its stamp.
type report struct {
	Stamp  stamp  `json:"stamp"`
	Result result `json:"result"`
}

func newStamp(o options) stamp {
	return stamp{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), Commit: commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from; run.sh sets it at link
// time.
var commit = "unknown"

// budget returns a loader's stop rule: at least one whole cycle, then until
// the time budget is spent (or for exactly o.windows windows).
func budget(o options, cycle int, seconds float64) func(int, time.Duration) bool {
	return func(done int, elapsed time.Duration) bool {
		if o.windows > 0 {
			return done < o.windows
		}
		return done < cycle || elapsed.Seconds() < seconds
	}
}

// run executes one workload once and returns its report.
func run(p params, o options) (*report, error) {
	rep := &report{Stamp: newStamp(o)}
	var err error
	if o.trace {
		err = runTraced(p, o, rep)
	} else {
		err = runEndToEnd(p, o, rep)
	}
	if err != nil {
		return nil, err
	}
	for name, mv := range rep.Result.Metrics {
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, mv.Value)
		}
	}
	if o.outDir != "" {
		if err := writeJSON(filepath.Join(o.outDir, "run_"+runName(o)+".json"), rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func runName(o options) string {
	if o.trace {
		return o.workload + "_trace"
	}
	return o.workload
}

// setUp builds the workload from nothing and warms it up.
func setUp(p params, o options) (workload, time.Duration, error) {
	runtime.GC() // the previous set-up's garbage is not this one's cost
	t := time.Now()
	w, err := newWorkload(o.workload, p)
	if err != nil {
		return nil, 0, err
	}
	if err := w.setup(o.seed); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return w, time.Since(t), nil
}

// runEndToEnd measures the gated metrics with tracing off.
func runEndToEnd(p params, o options, rep *report) error {
	var (
		w      workload
		setups []float64
	)
	for i := 0; i < p.setups; i++ {
		if w != nil {
			w.close()
		}
		next, took, err := setUp(p, o)
		if err != nil {
			return err
		}
		w = next
		setups = append(setups, took.Seconds())
	}
	defer w.close()

	runtime.GC()
	windowOps := p.window[o.workload]
	res := newLoader(w, w.clients(), windowOps, nil, &prober{})
	res.run(budget(o, w.cycle(), o.seconds))
	failed, firstErr := res.failed, res.err
	if err := w.verify(); err != nil {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}

	// Statistics are over whole cycles, so every run weighs the same mix
	// of inputs however many ops it had time for. Each window's timing is
	// restated at the reference machine speed before the median is taken:
	// the machine swings between fast and slow by up to 1.8x over seconds,
	// and which share of a run falls in which state is what made the raw
	// medians differ from run to run.
	used := res.windows[:len(res.windows)-len(res.windows)%w.cycle()]
	var rate, p50, rawRate, rawP50, probe []float64
	var mallocs uint64
	ops := 0
	for _, win := range used {
		speed := win.ref / refSpeed
		r, l := float64(win.ops)/win.wall.Seconds(), inUnit(win.p50, "ms")
		rawRate, rawP50 = append(rawRate, r), append(rawP50, l)
		rate, p50 = append(rate, r/speed), append(p50, l*speed)
		probe = append(probe, win.ref)
		mallocs += win.mallocs
		ops += win.ops
	}
	// median sorts its argument, so the stamp gets copies.
	rep.Stamp.WindowRates = append([]float64(nil), rawRate...)
	rep.Stamp.WindowSpeeds = append([]float64(nil), probe...)
	rep.Stamp.RawOpsPerS, rep.Stamp.RawP50Ms = median(rawRate), median(rawP50)
	values := map[string]float64{
		"setup_s":        median(setups),
		"ops_per_s":      median(rate),
		"latency_p50_ms": median(p50),
		"allocs_per_op":  float64(mallocs) / float64(ops),
		"heldout_re":     w.heldoutRE(),
	}
	fill(rep, endToEnd, values, res.ops(), failed, firstErr)
	rep.Stamp.Clients, rep.Stamp.WindowOps, rep.Stamp.Windows = w.clients(), windowOps, len(res.windows)
	rep.Stamp.Ops, rep.Stamp.Samples, rep.Stamp.Setups = res.ops(), len(res.lat), len(setups)
	rep.Stamp.RefOpsPerS = median(probe)
	return nil
}

// runTraced measures the per-layer metrics with one client. Untraced
// reference windows through the public entry point alternate with windows of
// the same ops with a span around each layer, so both sample the same
// stretches of machine time and their difference is the tracing overhead;
// together they get two thirds of the time budget. The layer probes follow.
func runTraced(p params, o options, rep *report) error {
	w, _, err := setUp(p, o)
	if err != nil {
		return err
	}
	defer w.close()
	windowOps := p.window[o.workload]

	rec := newRecorder()
	if err := w.prepareTrace(rec); err != nil {
		return err
	}
	runtime.GC()
	probe := &prober{}
	ref, traced := newLoader(w, 1, windowOps, nil, probe), newLoader(w, 1, windowOps, rec, probe)
	keepGoing := budget(o, w.cycle(), o.seconds*2/3)
	for start := time.Now(); keepGoing(len(ref.windows), time.Since(start)); {
		ref.window()
		if traced.ops() < p.traced[o.workload] {
			traced.window()
		}
	}
	counts := w.layerCounts(ref.ops())

	failed, firstErr := ref.failed+traced.failed, ref.err
	if firstErr == nil {
		firstErr = traced.err
	}
	if err := w.verify(); err != nil {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	pipe, sub, queries, err := w.probeInputs()
	if err != nil {
		return err
	}
	if err := runProbes(rec, p, sub, pipe, queries); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}

	metrics := layerMetrics(rec, ref, traced, counts, failed)
	fill(rep, perLayer(), metrics, ref.ops()+traced.ops(), failed, firstErr)
	rep.Stamp.RefOpsPerS = metrics["client.ref_ops_per_s"]
	rep.Stamp.RefP50Ms = inUnit(quantile(ref.lat, 0.5), "ms")
	rep.Stamp.TracedP50Ms = inUnit(quantile(traced.lat, 0.5), "ms")
	rep.Stamp.Clients, rep.Stamp.WindowOps, rep.Stamp.Windows = 1, windowOps, len(ref.windows)+len(traced.windows)
	rep.Stamp.Ops, rep.Stamp.Samples, rep.Stamp.Setups = ref.ops()+traced.ops(), len(ref.lat), 1
	if o.outDir == "" {
		return nil
	}
	return writeJSON(filepath.Join(o.outDir, "trace_"+o.workload+".json"), struct {
		Stamp stamp  `json:"stamp"`
		Spans []span `json:"spans"`
	}{rep.Stamp, rec.spans})
}

// fill writes the named metrics into the report; a metric the run did not
// produce reads 0.
func fill(rep *report, defs []metricDef, values map[string]float64, attempted, failed int, firstErr error) {
	rep.Result = result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		rep.Result.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	if firstErr != nil {
		rep.Stamp.Error = firstErr.Error()
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
