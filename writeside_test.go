package raal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math"
	"runtime"
	"strconv"
	"testing"

	"raal/internal/core"
	"raal/internal/nn"
)

// writeSideDigest is contentDigest of the model TestWriteSideDeterministic
// trains. It was computed before the backward kernels accumulated into
// gradients in place, and is frozen: a change that moves it changed what
// the write side trains, and says why where it edits it. It moved once,
// when every Fit began cutting its batches into 8-sample shards, to the
// digest the earlier trainer gave at that shard size.
const writeSideDigest = "0935a8053be12aa4b71ff1b94ca08a194fe3efb2f1f18ea6ae3b88d229adb080"

// TestWriteSideDeterministic runs the whole write side, System.Collect then
// TrainCostModel then Save, on a small fixed corpus under every schedule
// its concurrent stages can take: parallel plan collection, the word2vec
// producer goroutine, Backward's leaf worker and Adam's two halves, at
// GOMAXPROCS 1, 2 and 8 and with Adam on one goroutine. Every schedule
// must save the same bytes, and what they hold must hash to
// writeSideDigest.
//
// amd64 only for the digest: other ports may fuse multiply-adds.
func TestWriteSideDeterministic(t *testing.T) {
	sys, err := Open(IMDB, 0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	save := func() []byte {
		t.Helper()
		ds, err := sys.Collect(CollectOptions{NumQueries: 12, PlansPerQuery: 3, ResStatesPerPlan: 3, Seed: 1001})
		if err != nil {
			t.Fatal(err)
		}
		cm, _, err := TrainCostModel(ds, RAAL(), TrainOptions{Epochs: 3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cm.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []byte
	check := func(schedule string) {
		t.Helper()
		got := save()
		if first == nil {
			first = got
			return
		}
		if !bytes.Equal(got, first) {
			t.Errorf("%s: saved model differs from the GOMAXPROCS=1 run (%d vs %d bytes)", schedule, len(got), len(first))
		}
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		check("GOMAXPROCS=" + strconv.Itoa(procs))
	}
	nn.AdamOnOneGoroutine(true)
	defer nn.AdamOnOneGoroutine(false)
	check("Adam on one goroutine, GOMAXPROCS=8")

	if runtime.GOARCH != "amd64" {
		return
	}
	if got := contentDigest(t, first); got != writeSideDigest {
		t.Errorf("saved model content SHA-256 %s, want %s", got, writeSideDigest)
	}
}

// contentDigest hashes what a saved model holds, in order: each encoder
// word with its vector, then every network parameter. The saved bytes
// themselves carry gob's type numbers, which gob assigns process-wide in
// the order types are first encoded, so they depend on what else the
// process saved first: the test compares them within a run and hashes
// their content.
func contentDigest(t *testing.T, saved []byte) string {
	t.Helper()
	r := bytes.NewReader(saved)
	if err := core.ReadHeader(r, costModelMagic, costModelVersion, "cost model"); err != nil {
		t.Fatal(err)
	}
	var enc struct {
		Words   []string
		Vectors [][]float64
	}
	if err := gob.NewDecoder(r).Decode(&enc); err != nil {
		t.Fatal(err)
	}
	cm, err := LoadCostModel(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.Words) == 0 || len(enc.Words) != len(enc.Vectors) {
		t.Fatalf("encoder section holds %d words and %d vectors", len(enc.Words), len(enc.Vectors))
	}
	h := sha256.New()
	floats := func(vs []float64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	for i, w := range enc.Words {
		h.Write(append([]byte(w), 0))
		floats(enc.Vectors[i])
	}
	for _, p := range cm.model.Params() {
		floats(p.Var.Value.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
