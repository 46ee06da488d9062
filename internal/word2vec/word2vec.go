// Package word2vec implements skip-gram word embeddings with negative
// sampling (Mikolov et al., 2013).
//
// The paper (Sec. IV-C) embeds each operator's execution statement with
// word2vec so that semantically similar plan nodes land close together in
// embedding space — something one-hot encoding cannot do. Tokens here are
// the pieces of physical-plan statements: operation names, table and column
// identifiers, comparison operators, and bucketed literals.
package word2vec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"raal/internal/tensor"
)

// Config controls training.
type Config struct {
	Dim       int     // embedding dimensionality
	Window    int     // context window radius
	Negatives int     // negative samples per positive pair
	Epochs    int     // passes over the corpus
	LR        float64 // initial learning rate (linearly decayed)
	MinCount  int     // drop tokens rarer than this
	Seed      int64   // RNG seed; training is deterministic given it
	TableBits int     // log2 size of the negative-sampling table, at most 30
}

// DefaultConfig returns sensible defaults for plan-statement corpora.
func DefaultConfig() Config {
	return Config{Dim: 16, Window: 4, Negatives: 5, Epochs: 8, LR: 0.05, MinCount: 1, Seed: 1, TableBits: 16}
}

// Model holds trained embeddings.
type Model struct {
	Dim   int
	Vocab map[string]int
	Words []string
	In    [][]float64 // input embeddings — the vectors served to callers
}

// Train learns embeddings from tokenized sentences. It returns an error if
// the corpus is empty after MinCount filtering or the config is invalid.
//
// Training is sequential SGD over (center, context) pairs. Each pair's
// step is computed in an order that gives the same bits as applying its
// positive and negative samples one by one (DESIGN §5y): see pair.
func Train(sentences [][]string, cfg Config) (*Model, error) {
	t, err := newTrainer(sentences, cfg)
	if err != nil {
		return nil, err
	}
	t.run(t.pair)
	return t.m, nil
}

// trainer is the state of one Train call.
type trainer struct {
	cfg     Config
	m       *Model
	in, out []float64 // input and context embeddings, one Dim-long row per word; m.In are views of in
	table   []int32   // unigram^0.75 negative-sampling table
	tokens  []int32   // the word ids of every trainable sentence, back to back
	ends    []int     // sentence i is tokens[ends[i-1]:ends[i]]
	rng     *rand.Rand

	// Scratch for one pair, allocated once.
	grad, dots []float64
	rows       []int32 // the pair's output rows: its context word, then its kept negatives
	sig        tensor.Matrix
}

func newTrainer(sentences [][]string, cfg Config) (*trainer, error) {
	if cfg.Dim <= 0 || cfg.Window <= 0 || cfg.Epochs <= 0 || cfg.LR <= 0 || cfg.TableBits > 30 {
		return nil, fmt.Errorf("word2vec: invalid config %+v", cfg)
	}
	if cfg.Negatives <= 0 {
		cfg.Negatives = 5
	}
	if cfg.TableBits <= 0 {
		cfg.TableBits = 16
	}

	counts := map[string]int{}
	ntok := 0
	for _, s := range sentences {
		for _, w := range s {
			counts[w]++
		}
		ntok += len(s)
	}
	words := make([]string, 0, len(counts))
	for w, c := range counts {
		if c >= cfg.MinCount {
			words = append(words, w)
		}
	}
	if len(words) == 0 {
		return nil, fmt.Errorf("word2vec: empty vocabulary (corpus has %d sentences)", len(sentences))
	}
	sort.Strings(words) // deterministic vocab order
	vocab := make(map[string]int, len(words))
	for i, w := range words {
		vocab[w] = i
	}

	dim := cfg.Dim
	t := &trainer{
		cfg:    cfg,
		m:      &Model{Dim: dim, Vocab: vocab, Words: words, In: make([][]float64, len(words))},
		in:     make([]float64, len(words)*dim),
		out:    make([]float64, len(words)*dim),
		table:  make([]int32, 1<<cfg.TableBits),
		tokens: make([]int32, 0, ntok),
		ends:   make([]int, 0, len(sentences)),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		grad:   make([]float64, dim),
		dots:   make([]float64, (cfg.Negatives+4)&^3), // 1+Negatives, rounded up to whole vectors
		rows:   make([]int32, 0, 1+cfg.Negatives),
	}
	for i := range words {
		t.m.In[i] = t.in[i*dim : (i+1)*dim : (i+1)*dim]
	}
	for i := range t.in {
		t.in[i] = (t.rng.Float64() - 0.5) / float64(dim)
	}

	// Unigram^0.75 negative-sampling table.
	var total float64
	pow := make([]float64, len(words))
	for i, w := range words {
		pow[i] = math.Pow(float64(counts[w]), 0.75)
		total += pow[i]
	}
	idx, cum := 0, pow[0]/total
	for i := range t.table {
		t.table[i] = int32(idx)
		if float64(i)/float64(len(t.table)) > cum && idx < len(words)-1 {
			idx++
			cum += pow[idx] / total
		}
	}

	// Encode sentences once, dropping those left with fewer than two words.
	for _, s := range sentences {
		start := len(t.tokens)
		for _, w := range s {
			if id, ok := vocab[w]; ok {
				t.tokens = append(t.tokens, int32(id))
			}
		}
		if len(t.tokens)-start > 1 {
			t.ends = append(t.ends, len(t.tokens))
		} else {
			t.tokens = t.tokens[:start]
		}
	}
	if len(t.ends) == 0 {
		return nil, fmt.Errorf("word2vec: no trainable sentences after filtering")
	}
	return t, nil
}

// run calls step on every (center, context) pair of every epoch, in order,
// with the linearly decayed learning rate of the pair's sentence.
func (t *trainer) run(step func(center, ctx int32, lr float64)) {
	cfg := t.cfg
	totalSteps := cfg.Epochs * len(t.ends)
	n := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := 0
		for _, end := range t.ends {
			sent := t.tokens[start:end]
			start = end
			lr := cfg.LR * (1 - float64(n)/float64(totalSteps+1))
			if lr < cfg.LR*0.0001 {
				lr = cfg.LR * 0.0001
			}
			n++
			for pos, center := range sent {
				lo := max(pos-cfg.Window, 0)
				hi := min(pos+cfg.Window+1, len(sent))
				for cpos := lo; cpos < hi; cpos++ {
					if cpos != pos {
						step(center, sent[cpos], lr)
					}
				}
			}
		}
	}
}

// row returns word id's row of emb (t.in or t.out).
func (t *trainer) row(emb []float64, id int32) []float64 {
	d := t.cfg.Dim
	return emb[int(id)*d:][:d]
}

// pair applies one SGNS step: label 1 for the context word's output row,
// 0 for each negative sample's, the input-vector gradient accumulated over
// all of them and applied at the end. Sequentially, each sample reads its
// row, takes a sigmoid and updates the row before the next sample reads
// anything. Only a sample whose row an earlier sample of the pair updated
// depends on that order, so pair draws the negatives first (the RNG never
// depends on a value), cuts the rows into runs with no repeated row, and
// per run takes every dot from the rows as they stand, every sigmoid in one
// vector call, and then the updates in the original order. Every sum and
// rounding is the sequential one, so the bits are too.
func (t *trainer) pair(center, ctx int32, lr float64) {
	vin := t.row(t.in, center)
	clear(t.grad)
	rows := append(t.rows[:0], ctx)
	for n := 0; n < t.cfg.Negatives; n++ {
		// rng.Intn(len(t.table)) for the power-of-two table: Int31n's
		// masked Int31, without the calls in between.
		if neg := t.table[int32(t.rng.Int63()>>32)&int32(len(t.table)-1)]; neg != ctx {
			rows = append(rows, neg)
		}
	}
	for start := 0; start < len(rows); {
		end := start + 1
		for end < len(rows) && !slices.Contains(rows[start:end], rows[end]) {
			end++
		}
		run := rows[start:end]
		tensor.DotRowsInto(t.dots, vin, t.out, run)
		// Whole 4-lane vectors, which the SIMD sigmoid takes in one go; the
		// lanes past the run are ignored.
		k := (len(run) + 3) &^ 3
		t.sig = tensor.Matrix{Rows: 1, Cols: k, Data: t.dots[:k]}
		tensor.SigmoidInto(&t.sig, &t.sig)
		for i := range run {
			label := 0.0
			if start+i == 0 {
				label = 1
			}
			t.dots[i] = lr * (label - t.dots[i]) // the row's coefficient
		}
		tensor.AxpyRows(t.grad, vin, t.out, run, t.dots)
		start = end
	}
	for d := range vin {
		vin[d] += t.grad[d]
	}
}

// Vector returns the embedding for word, or nil if it is out of vocabulary.
func (m *Model) Vector(word string) []float64 {
	if id, ok := m.Vocab[word]; ok {
		return m.In[id]
	}
	return nil
}

// EmbedInto sets out, which is Dim long, to the average of the embeddings
// of the in-vocabulary words next yields, summed in the order it yields
// them (all zeros if every word is unknown). Averaging is how a node's
// multi-token execution statement becomes one semantic vector. next
// reports false once the words run out; a word need only stay valid until
// the following call, so a caller can stream words through one reused
// buffer without making a string of any.
func (m *Model) EmbedInto(out []float64, next func() ([]byte, bool)) {
	clear(out)
	n := 0
	for w, ok := next(); ok; w, ok = next() {
		id, known := m.Vocab[string(w)]
		if !known {
			continue
		}
		for d, v := range m.In[id] {
			out[d] += v
		}
		n++
	}
	if n > 0 {
		for d := range out {
			out[d] /= float64(n)
		}
	}
}

// Similarity returns the cosine similarity of two words' embeddings, or 0
// if either is out of vocabulary.
func (m *Model) Similarity(a, b string) float64 {
	va, vb := m.Vector(a), m.Vector(b)
	if va == nil || vb == nil {
		return 0
	}
	return Cosine(va, vb)
}

// Cosine returns the cosine similarity of two equal-length vectors.
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
