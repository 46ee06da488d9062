package main

import (
	"context"
	"time"

	"raal"
	"raal/internal/core"
	"raal/internal/encode"
	"raal/internal/engine"
	"raal/internal/sparksim"
	"raal/internal/tensor"
)

// runProbes times each layer's public function directly, on the workload's
// own queries and the benchmark-owned model. A workload's ops pass through
// only some layers, and some layer calls sit where no span can reach them
// (the engine and simulator inside workload.Collect, the forward pass inside
// an HTTP replica); the probes give those metrics a value on every workload.
// Where a workload's ops do record spans of the same name, the op spans win
// (see layerMetrics).
func runProbes(rec *recorder, p params, sub *substrate, pipe *pipeline, queries []string) error {
	root := rec.begin(spanProbe, "")
	defer rec.end(root)
	if n := len(queries); n > p.probeN {
		// Queries are ordered by size; take them evenly spaced.
		spaced := make([]string, p.probeN)
		for i := range spaced {
			spaced[i] = queries[i*n/p.probeN]
		}
		queries = spaced
	}
	ctx := context.Background()
	res := raal.DefaultResources()
	grid := raal.DefaultResourceGrid()
	// forward times the second of two identical calls: the first brings the
	// model's tape arena to this batch shape, the state steady traffic runs in.
	forward := func(name string, samples []*encode.Sample) (err error) {
		if _, err = pipe.model.PredictCtx(ctx, samples, core.PredictOpts{}); err != nil {
			return err
		}
		rec.time(name, spanProbe, func() int {
			_, err = pipe.model.PredictCtx(ctx, samples, core.PredictOpts{})
			return len(samples)
		})
		return err
	}

	for i, q := range queries {
		plans, err := sub.plan(rec, spanProbe, q)
		if err != nil {
			return err
		}
		plans = top3(plans)
		samples := make([]*encode.Sample, len(plans))
		for j, pl := range plans {
			samples[j] = encodeKeyed(rec, spanProbe, pipe.enc, pl, res)
		}
		if err := forward("core.forward_b1", samples[:1]); err != nil {
			return err
		}
		if err := forward("core.forward_b3", samples); err != nil {
			return err
		}
		if i%4 == 0 { // the grid probes cost 60 encodes each
			if err := forward("core.forward_b60", encodeGrid(rec, spanProbe, pipe.enc, plans[0], grid)); err != nil {
				return err
			}
		}
	}

	// The input projection of the stacked LSTM at batch 3 and full plan
	// length: (3*MaxNodes x NodeDim) * (NodeDim x 4*Hidden).
	cfg := pipe.model.Cfg
	a := tensor.New(3*cfg.MaxNodes, pipe.enc.NodeDim())
	b := tensor.New(pipe.enc.NodeDim(), 4*cfg.Hidden)
	out := tensor.New(a.Rows, b.Cols)
	for i := range a.Data {
		a.Data[i] = float64(i%7) - 3
	}
	for i := range b.Data {
		b.Data[i] = float64(i%5) - 2
	}
	for i := 0; i < p.probeN; i++ {
		rec.time("tensor.matmul", spanProbe, func() int {
			tensor.MatMulInto(out, a, b)
			return 2 * a.Rows * a.Cols * b.Cols // flops
		})
	}

	// Truth execution and pricing of the corpus's plans: the two calls
	// that dominate workload.Collect.
	eng := engine.New(sub.db)
	eng.MaxRows = 2_000_000
	sim := sparksim.New(sparksim.DefaultConfig())
	sim.Seed = fixedSeed
	plans := pipe.ds.Plans
	if len(plans) > p.probeN {
		plans = plans[:p.probeN]
	}
	for _, pl := range plans {
		var err error
		rec.time("engine.run", spanProbe, func() int {
			if _, err = eng.Run(pl); err != nil {
				return 0
			}
			rows := 0.0
			for _, n := range pl.Nodes {
				rows += n.ActRows
			}
			return int(rows)
		})
		if err != nil {
			return err
		}
		rec.time("sparksim.estimate", spanProbe, func() int { _, err = sim.Estimate(pl, res); return 1 })
		if err != nil {
			return err
		}
	}
	return nil
}

// layerMetrics turns a traced run into the per-layer metrics.
func layerMetrics(rec *recorder, ref, traced *loader, counts map[string]float64, failed int) map[string]float64 {
	ops, probes := rec.analyze()
	m := map[string]float64{}
	// pick prefers a workload's own op spans over the probes.
	pick := func(name string) *spanStats {
		if len(ops.dur[name]) > 0 {
			return ops
		}
		return probes
	}
	for _, sm := range spanMetrics {
		st := pick(sm.span)
		ds := st.dur[sm.span]
		if sm.self {
			ds = st.self[sm.span]
		}
		m[sm.name] = inUnit(medianDur(ds), sm.unit)
	}

	// work is total count over total time for the spans called name.
	work := func(name string) (n float64, d time.Duration) {
		st := pick(name)
		for i := range st.dur[name] {
			n += float64(st.n[name][i])
			d += st.dur[name][i]
		}
		return n, d
	}
	perSecond := func(name string) float64 {
		n, d := work(name)
		if d == 0 {
			return 0
		}
		return n / d.Seconds()
	}
	if cands, _ := work("physical.enumerate"); cands > 0 {
		m["physical.candidates_per_query"] = cands / float64(len(pick("physical.enumerate").dur["physical.enumerate"]))
	}
	if n, d := work("raal.fingerprint"); n > 0 {
		m["raal.fingerprint_us"] = inUnit(d, "us") / n
	}
	m["core.forward_rows_per_s"] = perSecond("core.forward_b60")
	m["tensor.matmul_mflops"] = perSecond("tensor.matmul") / 1e6
	m["engine.rows_per_s"] = perSecond("engine.run")
	m["core.fit_samples_per_s"] = perSecond("core.train")

	for name, v := range counts {
		m[name] = v
	}

	// Load-generator diagnostics come from the untraced reference phase.
	m["client.latency_p90_ms"] = inUnit(quantile(ref.lat, 0.90), "ms")
	m["client.latency_p99_ms"] = inUnit(quantile(ref.lat, 0.99), "ms")
	var bytes uint64
	var probe []float64
	for _, w := range ref.windows {
		bytes += w.bytes
		probe = append(probe, w.ref)
	}
	m["client.alloc_bytes_per_op"] = float64(bytes) / float64(ref.ops())
	m["client.gc_cycles"] = float64(ref.gc)
	m["client.ref_ops_per_s"] = median(probe)
	m["client.fail_frac"] = float64(failed) / float64(ref.ops()+traced.ops())

	m["trace.coverage"] = ops.coverage()
	refP50, tracedP50 := quantile(ref.lat, 0.5), quantile(traced.lat, 0.5)
	m["trace.overhead_frac"] = float64(tracedP50-refP50) / float64(refP50)
	return m
}
