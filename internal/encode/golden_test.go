package encode_test

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"raal/internal/cardest"
	"raal/internal/catalog"
	"raal/internal/datagen"
	"raal/internal/encode"
	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sql"
	"raal/internal/workload"
)

// The digests below were computed once, at the commit before plan
// statements were rendered once per plan and embedded without token
// strings, and are frozen. They pin what the planner and the encoder hand
// the model across commits: every candidate's Key, every node's statement
// and its tokens, every bit of the encoded plan part, and the bytes of the
// fitted encoder.

// encodeDigests is one corpus's frozen FNV-64a digests.
type encodeDigests struct {
	keys   uint64 // every candidate's Key(), in enumeration order
	tokens uint64 // every node's Statement() and its Tokenize output
	w2v    uint64 // EncodePlanPart bits (Nodes, Mask, Children, Stats), word2vec encoder
	onehot uint64 // the same for a one-hot encoder with MaxNodes 12, which truncates
	save   uint64 // the bytes the word2vec encoder's Save writes
}

var goldenEncodeDigests = map[string]encodeDigests{
	"imdb": {keys: 0x58d4f904f79312bd, tokens: 0x24bde6aaa95041f7, w2v: 0xaa0171f56ef08ce0, onehot: 0x9365d38578ff538b, save: 0x87fa71786acba1be},
	"tpch": {keys: 0x60e2778f53659518, tokens: 0xeb97dc1aa346c84d, w2v: 0x16031f323590031b, onehot: 0x74e79df91759b600, save: 0x93715f1f898d2a8b},
}

// goldenCorpus plans the first 40 queries the named workload generator
// draws from seed 11, keeping every candidate the default planner returns.
// Queries that do not bind or plan are skipped, as collection skips them.
func goldenCorpus(t *testing.T, name string) []*physical.Plan {
	t.Helper()
	var db *catalog.Database
	mk := workload.NewIMDBGenerator
	if name == "tpch" {
		db, mk = datagen.TPCH(0.05, 3), workload.NewTPCHGenerator
	} else {
		db = datagen.IMDB(0.02, 3)
	}
	gen, err := mk(db, 11)
	if err != nil {
		t.Fatal(err)
	}
	est, err := cardest.New(db, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	binder, planner := logical.NewBinder(db), physical.NewPlanner(est)
	var plans []*physical.Plan
	for qi := 0; qi < 40; qi++ {
		qs := gen.GenerateOne()
		stmt, err := sql.Parse(qs)
		if err != nil {
			t.Fatalf("generated invalid SQL %q: %v", qs, err)
		}
		q, err := binder.Bind(stmt)
		if err != nil {
			continue
		}
		ps, err := planner.Enumerate(q)
		if err != nil {
			continue
		}
		plans = append(plans, ps...)
	}
	return plans
}

// digestPlanPart folds every bit of an encoded plan part into h.
func digestPlanPart(h hash.Hash64, s *encode.Sample) {
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range s.Nodes.Data {
		put(v)
	}
	bits := func(row []bool) {
		for _, m := range row {
			if m {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	bits(s.Mask)
	for _, row := range s.Children {
		bits(row)
	}
	for _, v := range s.Stats {
		put(v)
	}
}

func TestEncodeGoldenDigests(t *testing.T) {
	for _, name := range []string{"imdb", "tpch"} {
		plans := goldenCorpus(t, name)
		var got encodeDigests

		h := fnv.New64a()
		for _, p := range plans {
			h.Write([]byte(p.Key()))
			h.Write([]byte{0x1d})
		}
		got.keys = h.Sum64()

		h = fnv.New64a()
		for _, p := range plans {
			for _, n := range p.Nodes {
				h.Write([]byte(n.Statement()))
				h.Write([]byte{0x1d})
				for _, tok := range encode.Tokenize(n.Statement()) {
					h.Write([]byte(tok))
					h.Write([]byte{0x1f})
				}
				h.Write([]byte{0x1e})
			}
		}
		got.tokens = h.Sum64()

		enc, err := encode.Fit(plans, encode.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		h = fnv.New64a()
		for _, p := range plans {
			digestPlanPart(h, enc.EncodePlanPart(p))
		}
		got.w2v = h.Sum64()

		cfg := encode.DefaultConfig()
		cfg.Mode, cfg.MaxNodes = encode.OneHot, 12
		oneHot, err := encode.Fit(plans, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h = fnv.New64a()
		for _, p := range plans {
			digestPlanPart(h, oneHot.EncodePlanPart(p))
		}
		got.onehot = h.Sum64()

		var buf bytes.Buffer
		if err := enc.Save(&buf); err != nil {
			t.Fatal(err)
		}
		h = fnv.New64a()
		h.Write(buf.Bytes())
		got.save = h.Sum64()

		if want := goldenEncodeDigests[name]; got != want {
			t.Errorf("%s (%d plans):\n got {keys: %#x, tokens: %#x, w2v: %#x, onehot: %#x, save: %#x}\nwant {keys: %#x, tokens: %#x, w2v: %#x, onehot: %#x, save: %#x}",
				name, len(plans), got.keys, got.tokens, got.w2v, got.onehot, got.save,
				want.keys, want.tokens, want.w2v, want.onehot, want.save)
		}
	}
}
