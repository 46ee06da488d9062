package encode

import (
	"fmt"
	"math"
	"sync"

	"raal/internal/physical"
	"raal/internal/sparksim"
	"raal/internal/tensor"
	"raal/internal/word2vec"
)

// SemanticMode selects how a node's execution statement is embedded.
type SemanticMode int

// Semantic embedding modes.
const (
	// Word2Vec embeds tokenized statements with skip-gram vectors
	// (the paper's choice).
	Word2Vec SemanticMode = iota
	// OneHot uses only the operator-type one-hot of Table II (the
	// strawman the paper argues against).
	OneHot
)

// Config controls encoder fitting.
type Config struct {
	Mode     SemanticMode
	MaxNodes int             // plans are padded/truncated to this many nodes
	W2V      word2vec.Config // used when Mode == Word2Vec
	MaxRes   sparksim.Resources
}

// DefaultConfig returns the defaults used across the experiments.
func DefaultConfig() Config {
	w := word2vec.DefaultConfig()
	w.Dim = 16
	return Config{
		Mode:     Word2Vec,
		MaxNodes: 42, // covers 5-join SMJ plans without truncation
		W2V:      w,
		MaxRes:   sparksim.MaxResources(),
	}
}

// NumStats is the size of the "other features" vector (Sec. IV-C).
const NumStats = 6

// nodeStatFeatures is the per-node statistics appended to each node vector.
const nodeStatFeatures = 2

// Encoder converts plans into model inputs. Fit it once on a training
// corpus, then encode any plan from the same benchmark.
type Encoder struct {
	cfg Config
	w2v *word2vec.Model
}

// Fit trains the encoder's semantic embedding on the statements of the
// given plans.
func Fit(plans []*physical.Plan, cfg Config) (*Encoder, error) {
	if cfg.MaxNodes <= 0 {
		return nil, fmt.Errorf("encode: MaxNodes must be positive, got %d", cfg.MaxNodes)
	}
	e := &Encoder{cfg: cfg}
	if cfg.Mode == Word2Vec {
		var corpus [][]string
		for _, p := range plans {
			// Statements is memoised, so encoding these plans later
			// renders nothing again.
			for _, stmt := range p.Statements() {
				corpus = append(corpus, Tokenize(stmt))
			}
		}
		m, err := word2vec.Train(corpus, cfg.W2V)
		if err != nil {
			return nil, fmt.Errorf("encode: training word2vec: %w", err)
		}
		e.w2v = m
	}
	return e, nil
}

// MaxNodes returns the padded sequence length.
func (e *Encoder) MaxNodes() int { return e.cfg.MaxNodes }

// semanticDim is the width of the semantic part of a node vector.
func (e *Encoder) semanticDim() int {
	if e.cfg.Mode == Word2Vec {
		return e.w2v.Dim
	}
	return physical.NumOpTypes
}

// NodeDim returns the width of one encoded node row:
// semantic ⊕ structure (MaxNodes) ⊕ per-node stats.
func (e *Encoder) NodeDim() int {
	return e.semanticDim() + e.cfg.MaxNodes + nodeStatFeatures
}

// Sample is one training/inference example for the deep cost models. It
// has a plan part — Nodes, Mask, Children and Stats, everything the encoder
// derives from the plan alone — and the allocation it is priced under
// (Resource). Samples of one plan under many allocations share the plan
// part by pointer (WithResource); the model recognises that sharing
// (SamePlan) and runs its plan-only layers once for all of them.
type Sample struct {
	// Nodes is MaxNodes×NodeDim: row i encodes plan node i (zero rows
	// beyond the plan's length).
	Nodes *tensor.Matrix
	// Mask marks real (non-padding) node rows.
	Mask []bool
	// Children[i][j] is true when node j is a child of node i — the
	// adjacency the node-aware attention layer restricts itself to.
	Children [][]bool
	// Resource is the Eq.-1 normalized resource vector.
	Resource []float64
	// Stats is the normalized "other features" vector.
	Stats []float64
	// CostSec is the ground-truth execution cost (the label); zero for
	// pure inference samples.
	CostSec float64

	// Memo, when non-nil, is a slot in which a model keeps what it derived
	// from the plan part (see PlanMemo). Shallow copies share it. A freshly
	// encoded sample has none, so one-shot scoring pays nothing for the
	// mechanism; set it, before the sample is shared, on encodings that
	// will be scored repeatedly, and nil it on a copy that models other
	// than the serving one will score.
	Memo *PlanMemo
}

// PlanMemo is a one-slot memo riding on a long-lived plan encoding (an
// encode-cache entry): the model that last scored the plan leaves its
// plan-only intermediate there and finds it again on the next estimate of
// the same plan. The slot is opaque to this package — the value's owner
// stamps and validates it — and holds one value, so a second model scoring
// the same encoding replaces the first one's. Safe for concurrent use; a
// stored value must not be mutated afterwards.
type PlanMemo struct {
	mu sync.Mutex
	v  any
}

// Load returns the stored value, nil when the slot is empty.
func (m *PlanMemo) Load() any {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.v
}

// Store replaces the stored value.
func (m *PlanMemo) Store(v any) {
	m.mu.Lock()
	m.v = v
	m.mu.Unlock()
}

// WithResource returns a shallow copy of s priced under the normalized
// resource vector r (Encoder.EncodeResources): the plan part and the memo
// slot are shared with s, not copied.
func (s *Sample) WithResource(r []float64) *Sample {
	c := *s
	c.Resource = r
	return &c
}

// SamePlan reports whether s and o share one plan part: the same Nodes,
// Mask, Children and Stats storage, as WithResource and struct copies
// produce. It compares identity, never contents, and all four fields, so
// samples assembled by hand are at worst treated as distinct plans.
func (s *Sample) SamePlan(o *Sample) bool {
	return s.Nodes == o.Nodes && sameSlice(s.Mask, o.Mask) &&
		sameSlice(s.Children, o.Children) && sameSlice(s.Stats, o.Stats)
}

func sameSlice[E any](a, b []E) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// EncodePlan encodes p executed (or estimated) under res.
func (e *Encoder) EncodePlan(p *physical.Plan, res sparksim.Resources) *Sample {
	s := e.EncodePlanPart(p)
	s.Resource = e.EncodeResources(res)
	return s
}

// EncodeResources returns the Eq.-1 normalized resource vector of res, the
// only part of a sample that depends on the allocation.
func (e *Encoder) EncodeResources(res sparksim.Resources) []float64 {
	return res.Normalized(e.cfg.MaxRes)
}

// EncodeResourcesInto writes EncodeResources(res) into dst, which must hold
// sparksim.NumFeatures values, and returns dst: a caller pricing many
// allocations carves their vectors from one block.
func (e *Encoder) EncodeResourcesInto(dst []float64, res sparksim.Resources) []float64 {
	return res.NormalizedInto(dst, e.cfg.MaxRes)
}

// EncodePlanPart encodes everything a sample holds about p itself and
// leaves Resource nil: price it with WithResource(EncodeResources(res)),
// once per allocation, without walking the plan again.
func (e *Encoder) EncodePlanPart(p *physical.Plan) *Sample {
	mn := e.cfg.MaxNodes
	s := &Sample{
		Nodes:    tensor.New(mn, e.NodeDim()),
		Mask:     make([]bool, mn),
		Children: make([][]bool, mn),
	}
	// The rows share one backing array and are capacity-capped, so none can
	// grow into the next.
	cells := make([]bool, mn*mn)
	for i := range s.Children {
		s.Children[i] = cells[i*mn : (i+1)*mn : (i+1)*mn]
	}

	n := len(p.Nodes)
	if n > mn {
		n = mn // truncate the deepest nodes; execution order keeps parents last
	}
	first := len(p.Nodes) - n // keep the top of the plan when truncating
	offStruct := e.semanticDim()
	offStats := offStruct + mn

	var stmts []string
	var sc tokenScanner
	if e.cfg.Mode == Word2Vec {
		stmts = p.Statements()
		sc.buf = make([]byte, 0, 64) // one token buffer for every statement
	}

	for i := 0; i < n; i++ {
		node := p.Nodes[first+i]
		s.Mask[i] = true
		row := s.Nodes.Row(i)

		// 1. node-semantic embedding
		switch e.cfg.Mode {
		case Word2Vec:
			e.embedStatement(row[:e.w2v.Dim], stmts[first+i], &sc)
		case OneHot:
			row[int(node.Op)] = 1
		}

		// 2. plan-structure embedding: +1 at child positions, −1 at the
		// parent position (out-degree/in-degree signs, Sec. IV-C). A child
		// precedes its parent (j < i), so the parent writes the child's −1,
		// and no node has to search the plan for its parent.
		for _, c := range node.Children {
			if j := c.ID - first; j >= 0 {
				row[offStruct+j] = 1
				s.Children[i][j] = true
				s.Nodes.Row(j)[offStruct+i] = -1
			}
		}

		// 3. per-node statistics (estimates — truth is unknown at
		// prediction time).
		row[offStats] = logNorm(node.EstRows)
		row[offStats+1] = logNorm(node.EstRows * node.RowBytes)
	}

	s.Stats = e.statsVector(p)
	return s
}

// embedStatement sets row to the word2vec embedding of stmt: its tokens,
// scanned through sc's buffer (kept for the next statement), averaged
// without a string made for any of them.
func (e *Encoder) embedStatement(row []float64, stmt string, sc *tokenScanner) {
	*sc = tokenScanner{s: stmt, buf: sc.buf}
	e.w2v.EmbedInto(row, sc.next)
}

// statsVector builds the global "other features": cardinality statistics
// the paper feeds alongside the plan embedding.
func (e *Encoder) statsVector(p *physical.Plan) []float64 {
	var scanBytes, maxEst float64
	joins, scans := 0, 0
	for _, n := range p.Nodes {
		switch n.Op {
		case physical.FileScan:
			scans++
			scanBytes += float64(n.RawRows * n.RowBytes)
		case physical.SortMergeJoin, physical.BroadcastHashJoin, physical.BroadcastNestedLoopJoin:
			joins++
		}
		if n.EstRows > maxEst {
			maxEst = n.EstRows
		}
	}
	return []float64{
		logNorm(p.Root.EstRows),
		logNorm(maxEst),
		logNorm(scanBytes),
		float64(joins) / 8,
		float64(scans) / 8,
		float64(len(p.Nodes)) / float64(e.cfg.MaxNodes),
	}
}

// logNorm squashes a magnitude into roughly [0,1] via log10 scaling
// (10^12 maps to 1).
func logNorm(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Log10(1+v) / 12
}
