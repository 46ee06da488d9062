package encode

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"raal/internal/sparksim"
	"raal/internal/tensor"
)

func TestEncoderSaveLoadRoundTrip(t *testing.T) {
	enc, plans := fitEncoder(t, Word2Vec)
	var buf bytes.Buffer
	if err := enc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.MaxNodes() != enc.MaxNodes() || restored.NodeDim() != enc.NodeDim() {
		t.Fatalf("dims not restored: %d/%d vs %d/%d",
			restored.MaxNodes(), restored.NodeDim(), enc.MaxNodes(), enc.NodeDim())
	}
	res := sparksim.DefaultResources()
	for _, p := range plans {
		a := enc.EncodePlan(p, res)
		b := restored.EncodePlan(p, res)
		if !tensor.AllClose(a.Nodes, b.Nodes, 0) {
			t.Fatal("restored encoder encodes differently")
		}
	}
}

func TestEncoderSaveLoadOneHot(t *testing.T) {
	enc, plans := fitEncoder(t, OneHot)
	var buf bytes.Buffer
	if err := enc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res := sparksim.DefaultResources()
	a := enc.EncodePlan(plans[0], res)
	b := restored.EncodePlan(plans[0], res)
	if !tensor.AllClose(a.Nodes, b.Nodes, 0) {
		t.Fatal("one-hot encoder round trip failed")
	}
}

func TestLoadEncoderGarbage(t *testing.T) {
	if _, err := LoadEncoder(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("garbage input should error")
	}
}

// corruptEncoder saves a fitted word2vec encoder, lets mutate edit the
// decoded snapshot, and returns the re-encoded bytes: a file that decodes
// cleanly but that no fitted encoder could have written.
func corruptEncoder(t *testing.T, mutate func(*encoderSnapshot)) *bytes.Buffer {
	t.Helper()
	enc, _ := fitEncoder(t, Word2Vec)
	var buf bytes.Buffer
	if err := enc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap encoderSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mutate(&snap)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return &out
}

func mustRefuse(t *testing.T, buf *bytes.Buffer, want string) {
	t.Helper()
	_, err := LoadEncoder(buf)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadEncoder error = %v, want one mentioning %q", err, want)
	}
}

func TestLoadEncoderRejectsBadDim(t *testing.T) {
	for _, dim := range []int{0, -3, maxLoadedDim + 1} {
		mustRefuse(t, corruptEncoder(t, func(s *encoderSnapshot) { s.Dim = dim }), "vector width")
	}
}

func TestLoadEncoderRejectsVectorsNotMatchingWords(t *testing.T) {
	mustRefuse(t, corruptEncoder(t, func(s *encoderSnapshot) { s.Words = s.Words[1:] }), "vectors for")
	mustRefuse(t, corruptEncoder(t, func(s *encoderSnapshot) { s.Vectors[2] = s.Vectors[2][:s.Dim-1] }), "has 15 values")
}

func TestLoadEncoderRejectsMaxNodesOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, maxLoadedNodes + 1} {
		mustRefuse(t, corruptEncoder(t, func(s *encoderSnapshot) { s.Cfg.MaxNodes = n }), "max nodes")
	}
}

func TestLoadEncoderRejectsUnknownMode(t *testing.T) {
	mustRefuse(t, corruptEncoder(t, func(s *encoderSnapshot) { s.Cfg.Mode = 7 }), "unknown semantic mode")
}
