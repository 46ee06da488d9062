package core

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"raal/internal/encode"
)

// The digests below are frozen: they pin cross-commit bit-identity of the
// float64 forward pass, of training and of the saved-model bytes. The pred
// and save digests were first computed at the commit before the numeric
// stack was folded into one generic path; all three moved once since,
// when every Fit began cutting its batches into 8-sample shards, to the
// values the earlier trainer gave at that shard size. The other bit-identity tests compare two runs of the same
// binary, so a refactor that changes both sides alike passes them; this
// one does not.
//
// amd64 only: other ports may fuse multiply-adds, which changes low bits
// without being wrong.

// goldenDigest is one variant's frozen FNV-64a digests.
type goldenDigest struct {
	fit  uint64 // every parameter after 2 epochs of Fit from the fixed seed
	pred uint64 // f64 Predict of that model, over math.Float64bits
	save uint64 // the bytes Model.Save writes for it
}

var goldenDigests = map[string]goldenDigest{
	"RAAL":          {pred: 0x7816d1286949d2cc, fit: 0x1395b64db6b640c, save: 0x603362ac9c89d3dd},
	"RAAL-noRes":    {pred: 0xe39dfda050ed6495, fit: 0x1df601780208478f, save: 0x6814e277eba81d26},
	"NE-LSTM":       {pred: 0xc6b9f6713835073b, fit: 0x226699031f055f4d, save: 0x237ce0311fdc0a9c},
	"NE-LSTM-noRes": {pred: 0x1fab437301b3bbde, fit: 0x100643a249a28cab, save: 0x1df938c388236a6e},
	"NA-LSTM":       {pred: 0xfcce902fc7319769, fit: 0x14ecd31ceddfdcbf, save: 0xd39c2fa40c5da260},
	"NA-LSTM-noRes": {pred: 0x85409598d8a8de9a, fit: 0x74469a1d5ccb9c1b, save: 0x23de2fe6f9f0ac19},
	"RAAC":          {pred: 0xca19f20060f6b1a5, fit: 0x4558f7f82d8b0eae, save: 0xe00a21323dda1503},
	"RAAC-noRes":    {pred: 0xa141b61bb0e17a33, fit: 0x5f41cb46e2282307, save: 0x7fa02876349a7077},
}

// init pins gob's type ids before any test runs. gob numbers types
// process-wide, on first use, and the bytes Model.Save writes carry those
// numbers. The save digests were computed in a process whose first gob
// use was a model save; without this, a shuffled order that runs, say,
// TestTrainStateRoundTripAndCorruption first numbers the train state's
// types first and moves every save digest.
func init() {
	if err := NewModel(RAAL(), testConfig()).Save(io.Discard); err != nil {
		panic(err)
	}
}

func goldenVariants() []Variant {
	var vs []Variant
	for _, v := range AllVariants() {
		vs = append(vs, v, v.WithoutResources())
	}
	return vs
}

// goldenSamples is the fixed sample set: the chain-shaped synthetic plans
// plus the masked/holey ones, so several active lengths and interior mask
// holes are covered.
func goldenSamples() []*encode.Sample {
	samples := synthDataset(40, 1234)
	rng := rand.New(rand.NewSource(4321))
	for i := 0; i < 24; i++ {
		samples = append(samples, maskedSample(rng))
	}
	return samples
}

func floatDigest(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func goldenModel(v Variant) *Model {
	cfg := testConfig()
	cfg.Seed = 7
	return NewModel(v, cfg)
}

func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are pinned for amd64 (other ports may fuse multiply-add)")
	}
	samples := goldenSamples()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, v := range goldenVariants() {
		want, ok := goldenDigests[v.Name]
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			// Train first: a freshly initialized model predicts below zero
			// on the log scale for most samples, which Predict clamps to 0,
			// and a digest of zeros pins nothing.
			m := goldenModel(v)
			tc := DefaultTrainConfig()
			tc.Epochs, tc.Batch, tc.Seed = 2, 16, 3
			if _, err := m.Fit(samples, tc); err != nil {
				t.Fatal(err)
			}
			var got goldenDigest
			var params []float64
			for _, p := range m.Params() {
				params = append(params, p.Var.Value.Data...)
			}
			got.fit = floatDigest(params)

			opt := schedOpts{workers: procs, chunk: 8}
			preds := predictOn(m, samples, opt)
			distinct := map[float64]bool{}
			for _, p := range preds {
				distinct[p] = true
			}
			if len(distinct) < len(preds)/2 {
				t.Fatalf("%q: only %d distinct predictions over %d samples; the digest would pin little", v.Name, len(distinct), len(preds))
			}
			got.pred = floatDigest(preds)
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			got.save = h.Sum64()

			if !ok || got != want {
				t.Errorf("%q GOMAXPROCS=%d:\n got {pred: %#x, fit: %#x, save: %#x}\nwant {pred: %#x, fit: %#x, save: %#x}",
					v.Name, procs, got.pred, got.fit, got.save, want.pred, want.fit, want.save)
			}
		}
	}
}
