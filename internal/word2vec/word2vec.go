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
	"sort"
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
	TableBits int     // log2 size of the negative-sampling table
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
	out   [][]float64 // context embeddings, training-only
}

// Train learns embeddings from tokenized sentences. It returns an error if
// the corpus is empty after MinCount filtering or the config is invalid.
func Train(sentences [][]string, cfg Config) (*Model, error) {
	if cfg.Dim <= 0 || cfg.Window <= 0 || cfg.Epochs <= 0 || cfg.LR <= 0 {
		return nil, fmt.Errorf("word2vec: invalid config %+v", cfg)
	}
	if cfg.Negatives <= 0 {
		cfg.Negatives = 5
	}
	if cfg.TableBits <= 0 {
		cfg.TableBits = 16
	}

	counts := map[string]int{}
	for _, s := range sentences {
		for _, w := range s {
			counts[w]++
		}
	}
	var words []string
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

	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Dim: cfg.Dim, Vocab: vocab, Words: words}
	m.In = make([][]float64, len(words))
	m.out = make([][]float64, len(words))
	for i := range words {
		m.In[i] = make([]float64, cfg.Dim)
		m.out[i] = make([]float64, cfg.Dim)
		for d := range m.In[i] {
			m.In[i][d] = (rng.Float64() - 0.5) / float64(cfg.Dim)
		}
	}

	// Unigram^0.75 negative-sampling table.
	tableSize := 1 << cfg.TableBits
	table := make([]int, tableSize)
	var total float64
	pow := make([]float64, len(words))
	for i, w := range words {
		pow[i] = math.Pow(float64(counts[w]), 0.75)
		total += pow[i]
	}
	idx, cum := 0, pow[0]/total
	for i := range table {
		table[i] = idx
		if float64(i)/float64(tableSize) > cum && idx < len(words)-1 {
			idx++
			cum += pow[idx] / total
		}
	}

	// Encode sentences once.
	encoded := make([][]int, 0, len(sentences))
	for _, s := range sentences {
		var enc []int
		for _, w := range s {
			if id, ok := vocab[w]; ok {
				enc = append(enc, id)
			}
		}
		if len(enc) > 1 {
			encoded = append(encoded, enc)
		}
	}
	if len(encoded) == 0 {
		return nil, fmt.Errorf("word2vec: no trainable sentences after filtering")
	}

	grad := make([]float64, cfg.Dim)
	totalSteps := cfg.Epochs * len(encoded)
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, sent := range encoded {
			lr := cfg.LR * (1 - float64(step)/float64(totalSteps+1))
			if lr < cfg.LR*0.0001 {
				lr = cfg.LR * 0.0001
			}
			step++
			for pos, center := range sent {
				lo := pos - cfg.Window
				if lo < 0 {
					lo = 0
				}
				hi := pos + cfg.Window + 1
				if hi > len(sent) {
					hi = len(sent)
				}
				for cpos := lo; cpos < hi; cpos++ {
					if cpos == pos {
						continue
					}
					ctx := sent[cpos]
					vin := m.In[center]
					for d := range grad {
						grad[d] = 0
					}
					// positive pair
					m.trainPair(vin, m.out[ctx], 1, lr, grad)
					// negatives
					for n := 0; n < cfg.Negatives; n++ {
						neg := table[rng.Intn(tableSize)]
						if neg == ctx {
							continue
						}
						m.trainPair(vin, m.out[neg], 0, lr, grad)
					}
					for d := range vin {
						vin[d] += grad[d]
					}
				}
			}
		}
	}
	return m, nil
}

// trainPair applies one SGNS update: label 1 for a positive pair, 0 for a
// negative sample. The input-vector gradient is accumulated into grad so
// the caller can apply it once per context.
func (m *Model) trainPair(vin, vout []float64, label, lr float64, grad []float64) {
	var dot float64
	for d := range vin {
		dot += vin[d] * vout[d]
	}
	pred := 1 / (1 + math.Exp(-dot))
	g := lr * (label - pred)
	for d := range vin {
		grad[d] += g * vout[d]
		vout[d] += g * vin[d]
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
