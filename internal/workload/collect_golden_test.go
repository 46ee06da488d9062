package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"raal/internal/datagen"
)

// The digests below were computed once, before the engine learned to stop
// joins early at the row limit and to gather only the columns an
// ancestor reads, and are frozen. They pin what Collect keeps: which
// queries it skips, and for every record it keeps the query, the plan,
// every node's true cardinality, the resource state and the simulated
// cost. Never edit them: a change to the engine that alters any of these
// alters the training set.
var goldenCollectDigests = map[string]uint64{
	"offline-1000": 0xf1d682a1045cdc2e,
	"offline-1001": 0x8caf34f1fc058a8e,
	"offline-1002": 0x316c26e3b553f336,
	"offline-1003": 0x2bb201d26a56f6ab,
	"serving-1":    0x0f2e5be3e7bc0eb6,
}

// collectCorpora are the corpora the benchmark collects on IMDB at scale
// 0.05 (datagen seed 1): the offline workload's four 12-query corpora and
// the 60-query corpus the served model trains on.
var collectCorpora = []struct {
	name    string
	queries int
	seed    int64
}{
	{"offline-1000", 12, 1000},
	{"offline-1001", 12, 1001},
	{"offline-1002", 12, 1002},
	{"offline-1003", 12, 1003},
	{"serving-1", 60, 1},
}

// digestDataset folds what Collect kept into one FNV-64a digest.
func digestDataset(ds *Dataset) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(ds.Skipped))
	for _, r := range ds.Records {
		put(uint64(r.QueryID))
		h.Write([]byte(r.Plan.Key()))
		h.Write([]byte{0})
		for _, n := range r.Plan.Nodes {
			put(math.Float64bits(n.ActRows))
		}
		fmt.Fprintf(h, "%+v", r.Res)
		put(math.Float64bits(r.CostSec))
	}
	return h.Sum64()
}

func TestCollectGoldenDigests(t *testing.T) {
	db := datagen.IMDB(0.05, 1)
	for _, c := range collectCorpora {
		gen, err := NewIMDBGenerator(db, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultCollectConfig()
		cfg.NumQueries, cfg.PlansPerQuery, cfg.ResStatesPerPlan, cfg.Seed = c.queries, 3, 3, c.seed
		ds, err := Collect(db, gen, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := digestDataset(ds), goldenCollectDigests[c.name]; got != want {
			t.Errorf("%s: digest of %d records (%d queries skipped) is %#x, want %#x",
				c.name, len(ds.Records), ds.Skipped, got, want)
		}
	}
}
