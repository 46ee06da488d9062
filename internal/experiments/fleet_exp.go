package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raal/internal/core"
	"raal/internal/encode"
	"raal/internal/fleet"
	"raal/internal/physical"
	"raal/internal/serve"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
)

// FleetBench is one fleet-routing measurement: a closed-loop client
// swarm against a fleet.Router over N real serve replicas (full HTTP
// stack on loopback listeners). The leading fields match the benchdiff
// schema so BENCH_fleet.json can gate regressions.
type FleetBench struct {
	Name string  `json:"name"`
	NsOp float64 `json:"ns_op"` // mean wall time per request
	N    int     `json:"n"`

	Replicas int     `json:"replicas"`
	Kill     string  `json:"kill"` // "none" or "mid-run"
	QPS      float64 `json:"qps"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	// Availability is the fraction of requests answered 200 (deep or
	// degraded) — the zero-loss invariant says it stays 1.0 even with a
	// replica killed mid-run.
	Availability float64 `json:"availability"`
	DeepFrac     float64 `json:"deep_frac"`
	DegradedFrac float64 `json:"degraded_frac"`
	// Robustness-machinery counters for the run.
	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`
	Hedges    uint64 `json:"hedges_fired"`
	// Affinity effectiveness, measured from the replicas' own /cachez
	// per-key hit attribution after the run (survivors only on kill
	// runs). CacheHitRate is the fleet-wide fraction of deep lookups
	// served from an already-warm encode-cache entry; AffinityHitFrac is
	// the fraction of deep lookups that landed on the key's home replica
	// (the one that served that key most) — 1.0 means consistent-hash
	// routing kept every key on a single warm cache.
	CacheHitRate    float64 `json:"cache_hit_rate"`
	AffinityHitFrac float64 `json:"affinity_hit_frac"`
}

// FleetResult is the fleet scaling + availability report.
type FleetResult struct {
	Benchmarks []FleetBench `json:"benchmarks"`
}

// Print renders the scaling table with the 1-replica baseline speedup.
func (r *FleetResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%-28s %9s %9s %9s %7s %6s %6s %9s %6s %6s %6s %6s\n",
		"workload", "qps", "p50 ms", "p99 ms", "avail", "deep", "degr", "failover", "hedge", "cache", "affin", "scale")
	var base float64
	for _, b := range r.Benchmarks {
		if b.Replicas == 1 && b.Kill == "none" {
			base = b.QPS
		}
	}
	for _, b := range r.Benchmarks {
		scale := "-"
		if base > 0 && !(b.Replicas == 1 && b.Kill == "none") {
			scale = fmt.Sprintf("%.2fx", b.QPS/base)
		}
		fmt.Fprintf(w, "%-28s %9.0f %9.3f %9.3f %7.3f %6.2f %6.2f %9d %6d %6.2f %6.2f %6s\n",
			b.Name, b.QPS, b.P50Ms, b.P99Ms, b.Availability, b.DeepFrac, b.DegradedFrac,
			b.Failovers, b.Hedges, b.CacheHitRate, b.AffinityHitFrac, scale)
	}
}

// JSON writes the machine-readable form consumed by cmd/benchdiff.
func (r *FleetResult) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Workload shape: same skewed popularity as the serve experiment, but
// driven through the router's full HTTP path, so affinity routing keeps
// each hot key on one replica.
const (
	fleetTotalRequests = 2048
	fleetClients       = 16
	fleetKeySpace      = 128
	fleetFallbackCost  = 9.0
)

var fleetReplicaLevels = []int{1, 2, 3}

// Fleet measures router scaling (1 → N replicas, each a real serve
// stack over a trained model on its own loopback listener) and
// availability under failure (the N=3 run repeated with one replica
// hard-killed mid-run: the zero-loss invariant keeps availability at
// 1.0 while failovers and degraded answers absorb the dead capacity).
// All replicas share this machine's cores, so QPS stays roughly flat
// across replica counts — the column that matters is availability; on
// real hardware each replica would bring its own cores.
func Fleet(opt Options) (*FleetResult, error) {
	samples := microDataset(fleetKeySpace, 77)
	cfg := core.DefaultConfig(microSem, microNodes)
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

	plans := make([]*physical.Plan, fleetKeySpace)
	bySig := make(map[string]*encode.Sample, fleetKeySpace)
	for i, s := range samples {
		plans[i] = &physical.Plan{Sig: fmt.Sprintf("q%d", i)}
		bySig[plans[i].Sig] = s
	}

	res := &FleetResult{}
	for _, n := range fleetReplicaLevels {
		b, err := runFleetLoad(m, bySig, plans, n, false)
		if err != nil {
			return nil, err
		}
		res.Benchmarks = append(res.Benchmarks, b)
	}
	b, err := runFleetLoad(m, bySig, plans, 3, true)
	if err != nil {
		return nil, err
	}
	res.Benchmarks = append(res.Benchmarks, b)
	return res, nil
}

// fleetFingerprint keys the experiment replica's stand-in cache: plan
// signature + resource vector. The router hashes the request's SQL text,
// which in this experiment is the plan signature, and every request uses
// the default allocation, so one routed query is one cache key.
func fleetFingerprint(p *physical.Plan, res sparksim.Resources) string {
	var b strings.Builder
	b.WriteString(p.Sig)
	for _, v := range res.Vector() {
		fmt.Fprintf(&b, ",%g", v)
	}
	return b.String()
}

// fleetCache is the experiment replica's stand-in for the encode cache:
// a per-routed-key lookup counter. The first lookup of a key is the
// encode miss that populates the entry; every later lookup is a hit the
// warm entry serves. Its stats() is what the replica exposes on /cachez.
type fleetCache struct {
	mu      sync.Mutex
	lookups map[string]uint64
}

func (c *fleetCache) touch(key string) {
	c.mu.Lock()
	c.lookups[key]++
	c.mu.Unlock()
}

func (c *fleetCache) stats() []serve.CacheKeyStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]serve.CacheKeyStats, 0, len(c.lookups))
	for k, n := range c.lookups {
		out = append(out, serve.CacheKeyStats{Key: k, Hits: n - 1})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// fleetReplica is one real serving stack on a loopback listener.
type fleetReplica struct {
	srv   *serve.Server
	ts    *httptest.Server
	cache *fleetCache
}

func newFleetReplica(m *core.Model, bySig map[string]*encode.Sample, planner serve.PlanFunc) (*fleetReplica, error) {
	po := core.PredictOpts{Workers: 1}
	cache := &fleetCache{lookups: make(map[string]uint64)}
	srv, err := serve.New(serve.Config{
		Deep: func(ctx context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
			cache.touch(fleetFingerprint(p, res))
			preds, err := m.PredictCtx(ctx, []*encode.Sample{bySig[p.Sig]}, po)
			if err != nil {
				return 0, err
			}
			return preds[0], nil
		},
		Concurrency: fleetClients,
		QueueDepth:  fleetClients,
	})
	if err != nil {
		return nil, err
	}
	h, err := serve.NewHandler(srv, serve.HTTPConfig{Planner: planner, CacheStats: cache.stats})
	if err != nil {
		return nil, err
	}
	return &fleetReplica{srv: srv, ts: httptest.NewServer(h), cache: cache}, nil
}

// scrapeAffinity fetches every surviving replica's /cachez and reduces
// the per-key attributions to the two fleet-level affinity numbers: the
// warm-hit rate and the fraction of lookups that landed on each key's
// home replica. A killed replica's listener is gone, so kill runs score
// survivors only — exactly the state an operator could observe.
func scrapeAffinity(client *http.Client, reps []*fleetReplica, dead int) (hitRate, affinityFrac float64) {
	perKey := make(map[string][]uint64) // lookups per replica that saw the key
	var hits, lookups uint64
	for i, r := range reps {
		if i == dead {
			continue
		}
		resp, err := client.Get(r.ts.URL + "/cachez")
		if err != nil {
			continue
		}
		var cs serve.CacheStatsResponse
		derr := json.NewDecoder(resp.Body).Decode(&cs)
		resp.Body.Close()
		if derr != nil {
			continue
		}
		for _, k := range cs.Keys {
			n := k.Hits + 1 // hits + the populating miss
			perKey[k.Key] = append(perKey[k.Key], n)
			hits += k.Hits
			lookups += n
		}
	}
	if lookups == 0 {
		return 0, 0
	}
	var home uint64
	for _, counts := range perKey {
		var max uint64
		for _, n := range counts {
			if n > max {
				max = n
			}
		}
		home += max
	}
	return float64(hits) / float64(lookups), float64(home) / float64(lookups)
}

// runFleetLoad drives one (replicas, kill) cell.
func runFleetLoad(m *core.Model, bySig map[string]*encode.Sample, plans []*physical.Plan, nReplicas int, kill bool) (FleetBench, error) {
	planner := func(sql string) ([]*physical.Plan, error) {
		for _, p := range plans {
			if p.Sig == sql {
				return []*physical.Plan{p}, nil
			}
		}
		return nil, fmt.Errorf("unknown query %q", sql)
	}

	reps := make([]*fleetReplica, nReplicas)
	members := make([]fleet.Replica, nReplicas)
	ids := make([]string, nReplicas)
	for i := range reps {
		r, err := newFleetReplica(m, bySig, planner)
		if err != nil {
			return FleetBench{}, err
		}
		reps[i] = r
		ids[i] = fmt.Sprintf("r%d", i)
		members[i] = fleet.Replica{ID: ids[i], URL: r.ts.URL}
	}
	met := fleet.NewMetrics(telemetry.NewRegistry(), ids)
	router, err := fleet.New(fleet.Config{
		Replicas:         members,
		Planner:          planner,
		HealthInterval:   20 * time.Millisecond,
		DownAfter:        2,
		UpAfter:          1,
		RetryAttempts:    2,
		AttemptTimeout:   5 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
		HedgeAfter:       0, // adaptive p99
		Seed:             11,
		Metrics:          met,
		Fallback: func(_ context.Context, _ *physical.Plan, _ sparksim.Resources) (float64, error) {
			return fleetFallbackCost, nil
		},
	})
	if err != nil {
		return FleetBench{}, err
	}
	rs := httptest.NewServer(router)
	defer func() {
		rs.Close()
		router.Close()
		for _, r := range reps {
			r.ts.Close()
		}
	}()

	name := fmt.Sprintf("fleet/replicas=%d", nReplicas)
	if kill {
		name += "/kill=mid-run"
	}

	perClient := fleetTotalRequests / fleetClients
	durs := make([]time.Duration, fleetClients*perClient)
	var (
		sent, deep, degraded, failed atomic.Int64
		killOnce                     sync.Once
		wg                           sync.WaitGroup
	)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: fleetClients}}
	start := time.Now()
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000*nReplicas + c)))
			for i := 0; i < perClient; i++ {
				if kill && sent.Add(1) == int64(fleetTotalRequests/2) {
					killOnce.Do(func() {
						reps[nReplicas-1].ts.CloseClientConnections()
						reps[nReplicas-1].ts.Close()
					})
				}
				p := plans[rng.Intn(fleetKeySpace)]
				body, _ := json.Marshal(serve.EstimateRequest{SQL: p.Sig})
				t0 := time.Now()
				resp, err := client.Post(rs.URL+"/estimate", "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				var er serve.EstimateResponse
				derr := json.NewDecoder(resp.Body).Decode(&er)
				resp.Body.Close()
				durs[c*perClient+i] = time.Since(t0)
				switch {
				case resp.StatusCode != http.StatusOK || derr != nil:
					failed.Add(1)
				case er.Degraded || strings.HasPrefix(er.Source, "fallback"):
					degraded.Add(1)
				default:
					deep.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	total := len(durs)
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	pct := func(p float64) float64 {
		idx := int(p * float64(total-1))
		return float64(durs[idx]) / float64(time.Millisecond)
	}
	dead := -1
	if kill {
		dead = nReplicas - 1
	}
	cacheHit, affinity := scrapeAffinity(client, reps, dead)
	return FleetBench{
		Name:            name,
		NsOp:            float64(sum.Nanoseconds()) / float64(total),
		N:               total,
		Replicas:        nReplicas,
		Kill:            map[bool]string{true: "mid-run", false: "none"}[kill],
		QPS:             float64(total) / elapsed.Seconds(),
		P50Ms:           pct(0.50),
		P99Ms:           pct(0.99),
		Availability:    float64(deep.Load()+degraded.Load()) / float64(total),
		DeepFrac:        float64(deep.Load()) / float64(total),
		DegradedFrac:    float64(degraded.Load()) / float64(total),
		Retries:         met.Retries.Value(),
		Failovers:       met.Failovers.Value(),
		Hedges:          met.Hedges.With("fired").Value(),
		CacheHitRate:    cacheHit,
		AffinityHitFrac: affinity,
	}, nil
}
