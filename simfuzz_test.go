package raal

import (
	"math"
	"testing"

	"raal/internal/sparksim"
	"raal/internal/workload"
)

// FuzzSimulator holds the simulator to four properties over generated
// plans, each priced under every allocation of DefaultResourceGrid:
//
//   - Estimate is Breakdown(...).TotalSec, bit for bit;
//   - the cost is finite and not negative;
//   - it is deterministic per Seed: a second simulator with the same
//     calibration and Seed prices the plan to the same bits;
//   - it is monotone in input rows: with every cardinality of the plan
//     (raw, estimated and, when executed, actual rows) grown by the same
//     factor, no allocation prices it cheaper.
//
// The input picks the generated query (genSeed), whether its candidates
// are executed first (so that true cardinalities drive the price), the
// simulator's Seed and the growth factor, 1 + grow/16.
func FuzzSimulator(f *testing.F) {
	f.Add(int64(1), true, int64(1), uint8(32))
	f.Add(int64(2), false, int64(7), uint8(1))
	f.Add(int64(3), true, int64(-5), uint8(255))
	f.Add(int64(1001), true, int64(1001), uint8(16))
	sys, err := Open(IMDB, 0.01, 1)
	if err != nil {
		f.Fatal(err)
	}
	grid := DefaultResourceGrid()
	f.Fuzz(func(t *testing.T, genSeed int64, execute bool, simSeed int64, grow uint8) {
		gen, err := workload.NewIMDBGenerator(sys.db, genSeed)
		if err != nil {
			t.Fatal(err)
		}
		query := gen.GenerateOne()
		plans, err := sys.Plan(query)
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		sim := sparksim.New(sparksim.DefaultConfig())
		sim.Seed = simSeed
		twin := sparksim.New(sparksim.DefaultConfig())
		twin.Seed = simSeed
		k := 1 + float64(grow)/16
		for _, p := range plans {
			if execute {
				if _, err := sys.eng.Run(p); err != nil {
					continue // a row-limit trip leaves nothing to price
				}
			}
			base := make([]float64, len(grid))
			for i, res := range grid {
				c, err := sim.Estimate(p, res)
				if err != nil {
					t.Fatalf("%s under %v: %v", p.Sig, res, err)
				}
				b, err := sim.Breakdown(p, res)
				if err != nil {
					t.Fatalf("%s under %v: Breakdown: %v", p.Sig, res, err)
				}
				if math.Float64bits(b.TotalSec) != math.Float64bits(c) {
					t.Fatalf("%s under %v: Estimate %v, Breakdown total %v", p.Sig, res, c, b.TotalSec)
				}
				if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
					t.Fatalf("%s under %v: cost %v", p.Sig, res, c)
				}
				if again, _ := twin.Estimate(p, res); math.Float64bits(again) != math.Float64bits(c) {
					t.Fatalf("%s under %v: seed %d priced %v, then %v", p.Sig, res, simSeed, c, again)
				}
				base[i] = c
			}
			for _, n := range p.Nodes {
				n.RawRows *= k
				n.EstRows *= k
				n.ActRows *= k
			}
			for i, res := range grid {
				if grown, _ := sim.Estimate(p, res); grown < base[i] {
					t.Fatalf("%q, %s under %v: %v× the rows cost %v, less than %v", query, p.Sig, res, k, grown, base[i])
				}
			}
		}
	})
}
