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
// Training is sequential SGD over (center, context) pairs, split across
// two goroutines (DESIGN §5y): a producer walks the pairs and draws each
// one's negative samples, and the caller's goroutine applies each pair in
// one tensor.NegSampleStep call. The draws read no embedding, so the
// result is that of applying the samples one by one, bit for bit.
func Train(sentences [][]string, cfg Config) (*Model, error) {
	t, err := newTrainer(sentences, cfg)
	if err != nil {
		return nil, err
	}
	t.train()
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
	}
	for i := range words {
		t.m.In[i] = t.in[i*dim : (i+1)*dim : (i+1)*dim]
	}
	for i := range t.in {
		// Float64 scales its draw by a product; rounding it keeps arm64
		// from fusing that product into the subtraction.
		t.in[i] = (float64(t.rng.Float64()) - 0.5) / float64(dim)
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
// with n, the index of the pair's sentence in the walk (see lr).
func (t *trainer) run(step func(n int, center, ctx int32)) {
	n := 0
	for epoch := 0; epoch < t.cfg.Epochs; epoch++ {
		start := 0
		for _, end := range t.ends {
			sent := t.tokens[start:end]
			start = end
			for pos, center := range sent {
				lo := max(pos-t.cfg.Window, 0)
				hi := min(pos+t.cfg.Window+1, len(sent))
				for cpos := lo; cpos < hi; cpos++ {
					if cpos != pos {
						step(n, center, sent[cpos])
					}
				}
			}
			n++
		}
	}
}

// lr is the learning rate of the walk's n-th sentence: linearly decayed
// over the walk, down to a floor of 10⁻⁴ of cfg.LR.
func (t *trainer) lr(n int) float64 {
	cfg := t.cfg
	lr := cfg.LR * (1 - float64(n)/float64(cfg.Epochs*len(t.ends)+1))
	return max(lr, cfg.LR*0.0001)
}

// row returns word id's row of emb (t.in or t.out).
func (t *trainer) row(emb []float64, id int32) []float64 {
	d := t.cfg.Dim
	return emb[int(id)*d:][:d]
}

// The ring between the goroutines: ringChunks chunks of chunkPairs pair
// records, carved from one allocation per Train. A record is recLen()
// int32s: the sentence index n, the center word, the row count k and the
// run count r, then room for 1+Negatives rows (the context word, then the
// kept negatives) and as many run lengths.
const (
	ringChunks = 4
	chunkPairs = 256
)

func (t *trainer) recLen() int { return 4 + 2*(1+t.cfg.Negatives) }

// train applies every pair in walk order. The producer fills free chunks
// and sends each, cut to its records, on full; train applies a chunk's
// pairs and hands the chunk back on free. The chunks bound the producer's
// lead, and each channel can hold all of them, so no send blocks. The
// producer has exited when train returns, however it returns: free is
// closed on the way out, which stops a producer waiting for a chunk, and
// train then drains full until the producer closes it.
func (t *trainer) train() {
	size := chunkPairs * t.recLen()
	ring := make([]int32, ringChunks*size)
	free, full := make(chan []int32, ringChunks), make(chan []int32, ringChunks)
	for i := range ringChunks {
		free <- ring[i*size : (i+1)*size : (i+1)*size]
	}
	go t.produce(free, full)
	defer func() {
		close(free)
		for range full {
		}
	}()
	buf := make([]float64, t.cfg.Dim+t.cfg.Negatives+4)
	n, lr := -1, 0.0
	reclen, neg := t.recLen(), t.cfg.Negatives
	for chunk := range full {
		for i := 0; i < len(chunk); i += reclen {
			rec := chunk[i:][:reclen]
			if int(rec[0]) != n {
				n = int(rec[0])
				lr = t.lr(n)
			}
			rows, runs := rec[4:][:rec[2]], rec[5+neg:][:rec[3]]
			tensor.NegSampleStep(t.row(t.in, rec[1]), t.out, rows, runs, lr, buf)
		}
		free <- chunk[:cap(chunk)]
	}
}

// produce is the producer goroutine: it walks the pairs, drawing each
// one's negatives from t.rng in walk order and cutting its rows into runs
// at a repeated row, and sends the filled chunks on full, which it closes
// when the walk ends or free is closed.
func (t *trainer) produce(free <-chan []int32, full chan<- []int32) {
	defer close(full)
	chunk, ok := <-free
	used, reclen, neg := 0, t.recLen(), t.cfg.Negatives
	t.run(func(n int, center, ctx int32) {
		if !ok {
			return
		}
		rec := chunk[used:][:reclen]
		rows := append(rec[4:4], ctx)
		for range neg {
			// rng.Intn(len(t.table)) for the power-of-two table: Int31n's
			// masked Int31, without the calls in between.
			if r := t.table[int32(t.rng.Int63()>>32)&int32(len(t.table)-1)]; r != ctx {
				rows = append(rows, r)
			}
		}
		runs := rec[5+neg : 5+neg]
		for start := 0; start < len(rows); {
			end := start + 1
			for end < len(rows) && !slices.Contains(rows[start:end], rows[end]) {
				end++
			}
			runs = append(runs, int32(end-start))
			start = end
		}
		rec[0], rec[1], rec[2], rec[3] = int32(n), center, int32(len(rows)), int32(len(runs))
		if used += reclen; used == len(chunk) {
			full <- chunk
			chunk, ok = <-free
			used = 0
		}
	})
	if ok && used > 0 {
		full <- chunk[:used]
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
		dot += float64(a[i] * b[i])
		na += float64(a[i] * a[i])
		nb += float64(b[i] * b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
