package encode

import (
	"encoding/gob"
	"fmt"
	"io"

	"raal/internal/word2vec"
)

// encoderSnapshot is the serialized form of an Encoder.
type encoderSnapshot struct {
	Mode     SemanticMode
	MaxNodes int
	MaxResV  []float64 // not used for reconstruction; kept for inspection
	Dim      int
	Words    []string
	Vectors  [][]float64
	Cfg      Config
}

// Save writes the fitted encoder (configuration plus word2vec vocabulary
// and vectors) to w.
func (e *Encoder) Save(w io.Writer) error {
	snap := encoderSnapshot{
		Mode:     e.cfg.Mode,
		MaxNodes: e.cfg.MaxNodes,
		Cfg:      e.cfg,
	}
	if e.w2v != nil {
		snap.Dim = e.w2v.Dim
		snap.Words = e.w2v.Words
		snap.Vectors = e.w2v.In
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("encode: saving encoder: %w", err)
	}
	return nil
}

// Bounds far above the defaults (42, 16): each sample a loaded encoder
// makes is MaxNodes × (Dim + MaxNodes + 2), never gigabytes.
const maxLoadedNodes, maxLoadedDim = 1024, 4096

// LoadEncoder reads an encoder previously written by Save. A snapshot no
// fitted encoder could have written — an unknown mode, a plan length or
// vector width out of range, vectors that do not match the vocabulary —
// is rejected rather than left to fail while encoding.
func LoadEncoder(r io.Reader) (*Encoder, error) {
	var snap encoderSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("encode: loading encoder: %w", err)
	}
	if err := snap.validate(); err != nil {
		return nil, err
	}
	e := &Encoder{cfg: snap.Cfg}
	if snap.Cfg.Mode == Word2Vec {
		m := &word2vec.Model{
			Dim:   snap.Dim,
			Words: snap.Words,
			In:    snap.Vectors,
			Vocab: make(map[string]int, len(snap.Words)),
		}
		for i, w := range snap.Words {
			m.Vocab[w] = i
		}
		e.w2v = m
	}
	return e, nil
}

func (snap *encoderSnapshot) validate() error {
	switch cfg := snap.Cfg; {
	case cfg.Mode != Word2Vec && cfg.Mode != OneHot:
		return fmt.Errorf("encode: corrupt encoder: unknown semantic mode %d", cfg.Mode)
	case cfg.MaxNodes <= 0 || cfg.MaxNodes > maxLoadedNodes:
		return fmt.Errorf("encode: corrupt encoder: max nodes %d out of range (1..%d)", cfg.MaxNodes, maxLoadedNodes)
	case cfg.Mode == OneHot:
		return nil
	case snap.Dim <= 0 || snap.Dim > maxLoadedDim:
		return fmt.Errorf("encode: corrupt encoder: vector width %d out of range (1..%d)", snap.Dim, maxLoadedDim)
	case len(snap.Vectors) != len(snap.Words):
		return fmt.Errorf("encode: corrupt encoder: %d vectors for %d words", len(snap.Vectors), len(snap.Words))
	}
	for i, v := range snap.Vectors {
		if len(v) != snap.Dim {
			return fmt.Errorf("encode: corrupt encoder: vector %d has %d values, want %d", i, len(v), snap.Dim)
		}
	}
	return nil
}
