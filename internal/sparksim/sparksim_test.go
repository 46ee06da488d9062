package sparksim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"raal/internal/cardest"
	"raal/internal/datagen"
	"raal/internal/engine"
	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sql"
)

// fixture builds executed plans over the synthetic IMDB.
type fixture struct {
	planner *physical.Planner
	binder  *logical.Binder
	eng     *engine.Engine
	sim     *Simulator
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	db := datagen.IMDB(0.3, 1)
	est, err := cardest.New(db, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		planner: physical.NewPlanner(est),
		binder:  logical.NewBinder(db),
		eng:     engine.New(db),
		sim:     New(DefaultConfig()),
	}
}

// executedPlans parses, plans, and runs the query so ActRows is populated.
func (f *fixture) executedPlans(t *testing.T, query string) []*physical.Plan {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	q, err := f.binder.Bind(stmt)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := f.planner.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if _, err := f.eng.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	return plans
}

const joinQuery = `SELECT COUNT(*) FROM title t, movie_companies mc
	WHERE t.id = mc.movie_id AND mc.company_id < 500`

func TestResourceValidation(t *testing.T) {
	bad := []Resources{
		{},
		{Nodes: 1, CoresPerNode: 1, Executors: 0, ExecCores: 1, ExecMemMB: 1024, NetMBps: 100, DiskMBps: 100},
		{Nodes: 1, CoresPerNode: 1, Executors: 1, ExecCores: 1, ExecMemMB: -5, NetMBps: 100, DiskMBps: 100},
		{Nodes: 1, CoresPerNode: 1, Executors: 1, ExecCores: 1, ExecMemMB: 1024, NetMBps: 0, DiskMBps: 100},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
	if err := DefaultResources().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedInUnitRange(t *testing.T) {
	v := DefaultResources().Normalized(MaxResources())
	if len(v) != NumFeatures {
		t.Fatalf("feature length %d", len(v))
	}
	for i, x := range v {
		if x < 0 || x > 1 {
			t.Fatalf("feature %d = %v outside [0,1]", i, x)
		}
	}
}

func TestEstimateDeterministic(t *testing.T) {
	f := newFixture(t)
	p := f.executedPlans(t, joinQuery)[0]
	res := DefaultResources()
	a, err := f.sim.Estimate(p, res)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := f.sim.Estimate(p, res)
	if a != b {
		t.Fatalf("estimate not deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("cost must be positive, got %v", a)
	}
}

func TestSeedChangesNoise(t *testing.T) {
	f := newFixture(t)
	p := f.executedPlans(t, joinQuery)[0]
	res := DefaultResources()
	a, _ := f.sim.Estimate(p, res)
	f.sim.Seed = 99
	b, _ := f.sim.Estimate(p, res)
	if a == b {
		t.Fatal("different seeds should perturb the estimate")
	}
	if math.Abs(a-b)/a > 2.5*f.sim.Conf.NoiseAmplitude {
		t.Fatalf("noise too large: %v vs %v", a, b)
	}
}

func TestMoreExecutorsSpeedUpShufflePlan(t *testing.T) {
	f := newFixture(t)
	plans := f.executedPlans(t, joinQuery)
	var smj *physical.Plan
	for _, p := range plans {
		if p.CountOp(physical.SortMergeJoin) > 0 {
			smj = p
			break
		}
	}
	if smj == nil {
		t.Fatal("no SMJ plan")
	}
	res1 := DefaultResources()
	res1.Executors = 1
	res8 := DefaultResources()
	res8.Executors = 8
	t1, _ := f.sim.Estimate(smj, res1)
	t8, _ := f.sim.Estimate(smj, res8)
	if t8 >= t1 {
		t.Fatalf("8 executors (%vs) should beat 1 executor (%vs) on a shuffle plan", t8, t1)
	}
}

func TestMemoryEffectIsNonMonotone(t *testing.T) {
	// Sec. III: increasing executor memory does not monotonically reduce
	// cost. Over a wide sweep the minimum must be interior or the curve
	// must rise at the top end.
	f := newFixture(t)
	p := f.executedPlans(t, joinQuery)[0]
	var costs []float64
	for _, gb := range []float64{1, 2, 3, 4, 6, 8, 12} {
		res := DefaultResources()
		res.ExecMemMB = gb * 1024
		c, err := f.sim.Estimate(p, res)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, c)
	}
	minIdx := 0
	for i, c := range costs {
		if c < costs[minIdx] {
			minIdx = i
		}
	}
	if minIdx == len(costs)-1 {
		t.Fatalf("cost monotonically decreasing with memory: %v", costs)
	}
	if costs[len(costs)-1] <= costs[minIdx]*1.001 {
		t.Fatalf("no GC penalty visible at high memory: %v", costs)
	}
}

func TestBroadcastOverflowCliff(t *testing.T) {
	// A broadcast plan must be substantially more expensive when the
	// build side exceeds the broadcast budget.
	f := newFixture(t)
	plans := f.executedPlans(t, `SELECT COUNT(*) FROM title t, movie_keyword mk
		WHERE t.id = mk.movie_id`)
	var bhj *physical.Plan
	for _, p := range plans {
		if p.CountOp(physical.BroadcastHashJoin) > 0 {
			bhj = p
			break
		}
	}
	if bhj == nil {
		t.Fatal("no BHJ plan")
	}
	small := DefaultResources()
	small.ExecMemMB = 512
	big := DefaultResources()
	big.ExecMemMB = 12288
	cSmall, _ := f.sim.Estimate(bhj, small)
	cBig, _ := f.sim.Estimate(bhj, big)
	if cSmall <= cBig {
		t.Fatalf("broadcast under tiny memory (%vs) should exceed big memory (%vs)", cSmall, cBig)
	}
}

func TestPushdownVariantsDiffer(t *testing.T) {
	// The paper's single-table observation: the two scan variants have
	// different costs, and the gap changes with memory.
	f := newFixture(t)
	plans := f.executedPlans(t, `SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 300`)
	if len(plans) != 2 {
		t.Fatalf("want 2 single-table plans, got %d", len(plans))
	}
	res := DefaultResources()
	a, _ := f.sim.Estimate(plans[0], res)
	b, _ := f.sim.Estimate(plans[1], res)
	if a == b {
		t.Fatal("scan variants should not cost the same")
	}
}

func TestBreakdownStagesAndPositivity(t *testing.T) {
	f := newFixture(t)
	plans := f.executedPlans(t, joinQuery)
	var smj *physical.Plan
	for _, p := range plans {
		if p.CountOp(physical.SortMergeJoin) > 0 {
			smj = p
		}
	}
	b, err := f.sim.Breakdown(smj, DefaultResources())
	if err != nil {
		t.Fatal(err)
	}
	// SMJ plan: two scan stages, the join+partial-agg stage, and the
	// final aggregate stage.
	if len(b.Stages) != 4 {
		t.Fatalf("SMJ plan should form 4 stages, got %d", len(b.Stages))
	}
	var sum float64
	for _, st := range b.Stages {
		if st.Sec <= 0 || st.Tasks < 1 || st.Waves < 1 {
			t.Fatalf("degenerate stage: %+v", st)
		}
		sum += st.Sec
	}
	if b.TotalSec < sum*0.9 {
		t.Fatalf("total %v inconsistent with stage sum %v", b.TotalSec, sum)
	}
}

func TestSingleTableStageCount(t *testing.T) {
	f := newFixture(t)
	p := f.executedPlans(t, `SELECT COUNT(*) FROM movie_keyword mk`)[0]
	b, err := f.sim.Breakdown(p, DefaultResources())
	if err != nil {
		t.Fatal(err)
	}
	// scan+partial agg stage, then the single-partition final stage.
	if len(b.Stages) != 2 {
		t.Fatalf("want 2 stages, got %d", len(b.Stages))
	}
	if b.Stages[len(b.Stages)-1].Tasks != 1 {
		t.Fatalf("final aggregate stage should have 1 task, got %d", b.Stages[len(b.Stages)-1].Tasks)
	}
}

func TestFasterDiskReducesCost(t *testing.T) {
	f := newFixture(t)
	p := f.executedPlans(t, joinQuery)[0]
	slow := DefaultResources()
	slow.DiskMBps = 40
	fast := DefaultResources()
	fast.DiskMBps = 500
	cSlow, _ := f.sim.Estimate(p, slow)
	cFast, _ := f.sim.Estimate(p, fast)
	if cFast >= cSlow {
		t.Fatalf("faster disk should not cost more: %v vs %v", cFast, cSlow)
	}
}

func TestEstimateUsesEstimatesWhenNotExecuted(t *testing.T) {
	f := newFixture(t)
	stmt, _ := sql.Parse(joinQuery)
	q, err := f.binder.Bind(stmt)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := f.planner.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	// Not executed: ActRows all zero, estimates drive the model.
	c, err := f.sim.Estimate(plans[0], DefaultResources())
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Fatalf("estimate-driven cost %v", c)
	}
}

func TestInvalidResourcesRejected(t *testing.T) {
	f := newFixture(t)
	p := f.executedPlans(t, joinQuery)[0]
	if _, err := f.sim.Estimate(p, Resources{}); err == nil {
		t.Fatal("invalid resources should be rejected")
	}
}

func TestSlots(t *testing.T) {
	r := Resources{Executors: 3, ExecCores: 4}
	if r.Slots() != 12 {
		t.Fatalf("Slots = %d", r.Slots())
	}
	if (Resources{}).Slots() != 1 {
		t.Fatal("zero resources should clamp to 1 slot")
	}
}

// TestEstimateAllocatesNothing pins Estimate to no allocation, static and
// dynamic allocation alike: it prices the stages without recording them
// or their labels, and hashes the noise seed without fmt.
func TestEstimateAllocatesNothing(t *testing.T) {
	f := newFixture(t)
	dyn := DefaultResources()
	dyn.Dynamic = true
	for _, p := range f.executedPlans(t, joinQuery) {
		for _, res := range []Resources{DefaultResources(), dyn} {
			if got := testing.AllocsPerRun(20, func() { f.sim.Estimate(p, res) }); got != 0 {
				t.Errorf("%s under %v: Estimate made %v allocations, want 0", p.Sig, res, got)
			}
		}
	}
}

// TestNoiseSeedMatchesFmt holds the noise seed to the bytes it hashed
// when fmt wrote them, fmt.Fprintf(fnv64a, "%s|%v|%d", sig, res, seed),
// and Resources.String to its fmt form, on odd values too.
func TestNoiseSeedMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specials := []float64{0, math.Copysign(0, -1), 0.5, 1.5, 2.5, -0.4, 1e21, 1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 500; i++ {
		res := randomValidResources(rng)
		if i%2 == 0 {
			res.ExecMemMB = specials[rng.Intn(len(specials))]
			res.NetMBps = specials[rng.Intn(len(specials))]
			res.DiskMBps = rng.Float64() * math.Pow(10, float64(rng.Intn(30)))
			res.Nodes = -rng.Intn(1 << 20)
		}
		sig := fmt.Sprintf("order=t%d;algos=é", rng.Intn(100))
		seed := rng.Int63() - rng.Int63()
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%v|%d", sig, res, seed)
		if got, want := noiseSeed(sig, res, seed), h.Sum64(); got != want {
			t.Fatalf("noiseSeed(%q, %v, %d) = %x, want %x", sig, res, seed, got, want)
		}
		want := fmt.Sprintf("%dn×%dc %dex×%dc %0.fMB net=%.0f disk=%.0f",
			res.Nodes, res.CoresPerNode, res.Executors, res.ExecCores, res.ExecMemMB, res.NetMBps, res.DiskMBps)
		if got := res.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}
