package raal

import (
	"errors"
	"math"
	"testing"
)

// gateSet returns a small encoded reference workload for the accuracy
// gate from the shared dataset.
func gateSet(t *testing.T) []*Sample {
	t.Helper()
	_, ds, cm := sharedSystem(t)
	gate := cm.EncodeDataset(ds)
	if len(gate) > 64 {
		gate = gate[:64]
	}
	return gate
}

// TestPrecisionCacheIsolation pins the serving-precision cache contract
// over a grid of (plan, resources) pairs: estimates made under f64 and
// under a reduced precision never share a cache entry, an entry is one
// plan's (its allocations share it, hits summed), the fingerprint ID
// stays precision-agnostic (fleet-router affinity is unaffected by a
// replica's precision), and EncodeCacheKeyStats attributes hits to the
// precision whose traffic produced them.
func TestPrecisionCacheIsolation(t *testing.T) {
	sys, _, cm := sharedSystem(t)
	gate := gateSet(t)
	defer func() {
		cm.EnableEncodeCache(0)
		if err := cm.EnablePrecision(PrecisionF64, nil, 0); err != nil {
			t.Error(err)
		}
	}()

	type combo struct {
		p   *Plan
		res Resources
	}
	var combos []combo
	var plansUsed []*Plan
	for _, q := range []string{
		`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`,
		`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 500`,
	} {
		plans, err := sys.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		res := DefaultResources()
		res2 := res
		res2.ExecMemMB *= 2
		combos = append(combos, combo{plans[0], res}, combo{plans[0], res2})
		plansUsed = append(plansUsed, plans[0])
	}

	cm.EnableEncodeCache(64)
	estimateAll := func() {
		for _, c := range combos {
			cm.Estimate(c.p, c.res)
		}
	}
	estimateAll() // f64: per plan, one miss then one hit (its second allocation)
	estimateAll() // f64: one hit per combo

	if err := cm.EnablePrecision(PrecisionF32, gate, 0.05); err != nil {
		t.Fatalf("gate refused the f32 install: %v", err)
	}
	if cm.Precision() != PrecisionF32 {
		t.Fatalf("active precision = %v, want f32", cm.Precision())
	}
	estimateAll() // f32: must miss once per plan — f64 entries are not shared
	estimateAll() // f32: one hit per combo

	stats := cm.EncodeCacheKeyStats()
	if want := 2 * len(plansUsed); len(stats) != want {
		t.Fatalf("cache holds %d entries, want %d (one per precision per plan)", len(stats), want)
	}
	perKey := map[string]map[string]uint64{} // fingerprint ID → precision → hits
	for _, s := range stats {
		if perKey[s.Key] == nil {
			perKey[s.Key] = map[string]uint64{}
		}
		if _, dup := perKey[s.Key][s.Precision]; dup {
			t.Fatalf("fingerprint %s has duplicate %s entries", s.Key, s.Precision)
		}
		perKey[s.Key][s.Precision] = s.Hits
	}
	if len(perKey) != len(plansUsed) {
		t.Fatalf("%d distinct fingerprints, want %d (IDs must be precision-agnostic and per plan)", len(perKey), len(plansUsed))
	}
	for key, byPrec := range perKey {
		for _, prec := range []string{"f64", "f32"} {
			hits, ok := byPrec[prec]
			if !ok {
				t.Fatalf("fingerprint %s has no %s entry", key, prec)
			}
			if hits != 3 { // 4 lookups over the plan's two allocations, the first a miss
				t.Fatalf("fingerprint %s precision %s served %d hits, want 3", key, prec, hits)
			}
		}
	}

	// The plan part of the fingerprint the router hashes must match what
	// the cache reports, regardless of precision.
	if id := FingerprintID(PlanOnlyFingerprint(combos[0].p)); perKey[id] == nil {
		t.Fatalf("router-side plan fingerprint %s not found in cache stats", id)
	}
}

// TestEnablePrecisionGateFallback pins the serving-layer gate contract:
// a deliberately impossible bound yields the typed refusal and leaves
// the previously active precision serving.
func TestEnablePrecisionGateFallback(t *testing.T) {
	_, _, cm := sharedSystem(t)
	gate := gateSet(t)
	if err := cm.EnablePrecision(PrecisionF64, nil, 0); err != nil {
		t.Fatal(err)
	}
	err := cm.EnablePrecision(PrecisionF32, gate, 0) // bound 0: f32 can never match f64 exactly
	var gateErr *QuantGateError
	if !errors.As(err, &gateErr) {
		t.Fatalf("EnablePrecision returned %v, want *QuantGateError", err)
	}
	if cm.Precision() != PrecisionF64 {
		t.Fatalf("after refusal the active precision is %v, want the f64 fallback", cm.Precision())
	}
}

// TestEnablePrecisionRefusesNonFinite drives the NaN hole in the gate
// through the serving layer: a model whose reduced-precision predictions
// are not numbers must be refused with the typed error, counted in
// raal_quant_gate_failures_total, and leave serving on f64. (Every delta
// is NaN here, and NaN > bound is false, so the old gate installed it.)
func TestEnablePrecisionRefusesNonFinite(t *testing.T) {
	_, _, shared := sharedSystem(t)
	gate := gateSet(t)
	for name, poison := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1)} {
		cm := &CostModel{enc: shared.enc, model: shared.model.Clone()}
		reg := NewMetricsRegistry()
		cm.Instrument(reg)
		params := cm.model.Params()
		params[len(params)-1].Value().Data[0] = poison // the linear output layer's bias

		err := cm.EnablePrecision(PrecisionF32, gate, 0.05)
		var gateErr *QuantGateError
		if !errors.As(err, &gateErr) {
			t.Fatalf("%s: EnablePrecision returned %v, want *QuantGateError", name, err)
		}
		if cm.Precision() != PrecisionF64 {
			t.Fatalf("%s: after refusal the active precision is %v, want f64", name, cm.Precision())
		}
		if got := cm.api.gateFails.Value(); got != 1 {
			t.Fatalf("%s: raal_quant_gate_failures_total = %v, want 1", name, got)
		}
	}
}
