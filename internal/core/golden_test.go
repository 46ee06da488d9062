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

// The digests below were computed once, at the commit before the numeric
// stack was folded into one generic path, and are frozen: they pin
// cross-commit bit-identity of the float64 forward pass, of training and
// of the saved-model bytes. The other bit-identity tests compare two runs of the same
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
	"RAAL":          {pred: 0x30fdc8d7fb680e25, fit: 0xd42da202487d5511, save: 0xdfcda67f15a24aa2},
	"RAAL-noRes":    {pred: 0x3cd1bde08aa94bda, fit: 0x3588899d4c201b09, save: 0x141df386dbd65194},
	"NE-LSTM":       {pred: 0xfde646ce30fb33e9, fit: 0x7224da24fa8970a7, save: 0x8be3fea0dc5950d2},
	"NE-LSTM-noRes": {pred: 0x3ca005aada3b25f5, fit: 0xe0363fa02c9e7457, save: 0xeb7457114f4119ba},
	"NA-LSTM":       {pred: 0xb2d637555887daa7, fit: 0xae1af37dbe208a37, save: 0x6c3566139272046c},
	"NA-LSTM-noRes": {pred: 0xf685309b51d6fbe, fit: 0xe238ff0019edbfc6, save: 0x9b8a2bcc726eeab8},
	"RAAC":          {pred: 0xf6339ca8d92e2acf, fit: 0xa182ea7e38b0e469, save: 0xce94e92aa577ddb6},
	"RAAC-noRes":    {pred: 0x9037c506ee01e381, fit: 0xdfbc1afa480b4150, save: 0xa6782f45718f9330},
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
	for _, v := range goldenVariants() {
		want, ok := goldenDigests[v.Name]
		for _, workers := range []int{1, 4} {
			// Train first: a freshly initialized model predicts below zero
			// on the log scale for most samples, which Predict clamps to 0,
			// and a digest of zeros pins nothing.
			m := goldenModel(v)
			tc := DefaultTrainConfig()
			tc.Epochs, tc.Batch, tc.ShardSize, tc.Workers, tc.Seed = 2, 16, 4, workers, 3
			if _, err := m.Fit(samples, tc); err != nil {
				t.Fatal(err)
			}
			var got goldenDigest
			var params []float64
			for _, p := range m.Params() {
				params = append(params, p.Var.Value.Data...)
			}
			got.fit = floatDigest(params)

			opt := schedOpts{workers: workers, chunk: 8}
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
				t.Errorf("%q workers=%d:\n got {pred: %#x, fit: %#x, save: %#x}\nwant {pred: %#x, fit: %#x, save: %#x}",
					v.Name, workers, got.pred, got.fit, got.save, want.pred, want.fit, want.save)
			}
		}
	}
}
