package word2vec

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// clusterCorpus builds sentences from two disjoint token groups so that
// words within a group co-occur and words across groups never do.
func clusterCorpus(rng *rand.Rand, n int) [][]string {
	groupA := []string{"scan", "filter", "project", "table_a"}
	groupB := []string{"join", "shuffle", "sort", "table_b"}
	var out [][]string
	for i := 0; i < n; i++ {
		g := groupA
		if i%2 == 1 {
			g = groupB
		}
		s := make([]string, 6)
		for j := range s {
			s[j] = g[rng.Intn(len(g))]
		}
		out = append(out, s)
	}
	return out
}

func TestTrainSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	corpus := clusterCorpus(rng, 400)
	cfg := DefaultConfig()
	cfg.Epochs = 10
	m, err := Train(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	intra := m.Similarity("scan", "filter")
	inter := m.Similarity("scan", "join")
	if intra <= inter {
		t.Fatalf("intra-cluster similarity %v should exceed inter-cluster %v", intra, inter)
	}
	intra2 := m.Similarity("join", "sort")
	inter2 := m.Similarity("filter", "shuffle")
	if intra2 <= inter2 {
		t.Fatalf("intra-cluster similarity %v should exceed inter-cluster %v", intra2, inter2)
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	corpus := clusterCorpus(rng, 50)
	cfg := DefaultConfig()
	cfg.Epochs = 2
	m1, err := Train(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for w, i := range m1.Vocab {
		j := m2.Vocab[w]
		for d := range m1.In[i] {
			if m1.In[i][d] != m2.In[j][d] {
				t.Fatalf("training not deterministic for %q", w)
			}
		}
	}
}

func TestVectorOOV(t *testing.T) {
	m, err := Train([][]string{{"a", "b", "a", "b"}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Vector("zzz") != nil {
		t.Fatal("OOV should return nil")
	}
	if m.Vector("a") == nil {
		t.Fatal("in-vocab word should return a vector")
	}
}

func TestEmbedAverages(t *testing.T) {
	m, err := Train([][]string{{"a", "b", "a", "b", "c", "a"}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	va, vb := m.Vector("a"), m.Vector("b")
	got := make([]float64, m.Dim)
	for d := range got {
		got[d] = 7 // EmbedInto overwrites whatever the row held
	}
	m.EmbedInto(got, words("a", "b", "zzz")) // OOV token ignored
	for d := range got {
		want := (va[d] + vb[d]) / 2
		if math.Abs(got[d]-want) > 1e-12 {
			t.Fatalf("EmbedInto[%d] = %v want %v", d, got[d], want)
		}
	}
}

// words yields ws to EmbedInto through one reused buffer, as the encoder's
// tokeniser does.
func words(ws ...string) func() ([]byte, bool) {
	var buf []byte
	return func() ([]byte, bool) {
		if len(ws) == 0 {
			return nil, false
		}
		buf = append(buf[:0], ws[0]...)
		ws = ws[1:]
		return buf, true
	}
}

func TestEmbedAllOOVIsZero(t *testing.T) {
	m, err := Train([][]string{{"a", "b", "a", "b"}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, m.Dim)
	out[0] = 1 // EmbedInto clears what the row held
	m.EmbedInto(out, words("x", "y"))
	for _, v := range out {
		if v != 0 {
			t.Fatal("all-OOV embedding should be zero")
		}
	}
}

func TestEmptyCorpusError(t *testing.T) {
	if _, err := Train(nil, DefaultConfig()); err == nil {
		t.Fatal("expected error for empty corpus")
	}
	if _, err := Train([][]string{{"only"}}, DefaultConfig()); err == nil {
		t.Fatal("expected error: single-token sentences cannot be trained")
	}
}

func TestMinCountFiltersRareWords(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinCount = 3
	corpus := [][]string{
		{"common", "common", "rare"},
		{"common", "common", "other"},
	}
	m, err := Train(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Vector("rare") != nil {
		t.Fatal("rare word should be filtered by MinCount")
	}
	if m.Vector("common") == nil {
		t.Fatal("common word should be kept")
	}
}

func TestInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dim = 0
	if _, err := Train([][]string{{"a", "b"}}, cfg); err == nil {
		t.Fatal("expected error for Dim=0")
	}
}

func TestCosine(t *testing.T) {
	if c := Cosine([]float64{1, 0}, []float64{1, 0}); math.Abs(c-1) > 1e-12 {
		t.Fatalf("cosine of identical vectors = %v", c)
	}
	if c := Cosine([]float64{1, 0}, []float64{0, 1}); math.Abs(c) > 1e-12 {
		t.Fatalf("cosine of orthogonal vectors = %v", c)
	}
	if c := Cosine([]float64{0, 0}, []float64{1, 1}); c != 0 {
		t.Fatalf("cosine with zero vector = %v", c)
	}
}

func TestSimilarityRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := Train(clusterCorpus(rng, 100), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range m.Words {
		for _, b := range m.Words {
			s := m.Similarity(a, b)
			if s < -1.0000001 || s > 1.0000001 {
				t.Fatalf("similarity(%q,%q)=%v outside [-1,1]", a, b, s)
			}
		}
	}
}

// loadCorpus reads testdata/corpus1000.txt: the tokenised statements the
// encoder trains on in offline corpus 1000 of the benchmark (IMDB at scale
// 0.05 and seed 1, 12 queries of collection seed 1000, 3 plans each: 26
// plans, 403 statements), one statement per line, tokens separated by
// spaces, as encode.Tokenize returns them.
func loadCorpus(tb testing.TB) [][]string {
	data, err := os.ReadFile("testdata/corpus1000.txt")
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	out := make([][]string, len(lines))
	for i, l := range lines {
		out[i] = strings.Fields(l)
	}
	return out
}

// fitConfig is the config the encoder fits with (encode.DefaultConfig).
func fitConfig() Config {
	cfg := DefaultConfig()
	cfg.Dim = 16
	return cfg
}

// checkMatchesOracle trains on sentences as Train does
// and with the sequential oracle, and fails unless both give the same
// error, or the same bits in every input and output embedding.
func checkMatchesOracle(t *testing.T, sentences [][]string, cfg Config) {
	t.Helper()
	fast, err := newTrainer(sentences, cfg)
	want, werr := trainOracle(sentences, cfg)
	if (err == nil) != (werr == nil) {
		t.Fatalf("cfg %+v: newTrainer error %v, oracle error %v", cfg, err, werr)
	}
	if err != nil {
		return
	}
	fast.train()
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"In", fast.in, want.in}, {"out", fast.out, want.out}} {
		for i := range c.want {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				t.Fatalf("cfg %+v: %s[%d][%d] = %v, oracle %v", cfg, c.name, i/cfg.Dim, i%cfg.Dim, c.got[i], c.want[i])
			}
		}
	}
}

// TestTrainMatchesOracle holds Train to one-sample-at-a-time SGD on the
// benchmark's corpus; on ringCorpus at every width from 1 to 33 (the
// kernel's multiples of 4 and the Go loop's other widths) and 1 to 8
// negatives, over several ring chunks; and on 40 random small corpora:
// vocabularies of 1 to 12 words (so rows repeat within a pair), widths 1
// to 33, every window and negative count, and tables small enough that a
// negative often equals the context word.
func TestTrainMatchesOracle(t *testing.T) {
	checkMatchesOracle(t, loadCorpus(t), fitConfig())
	for dim := 1; dim <= 33; dim++ {
		checkMatchesOracle(t, ringCorpus(), ringConfig(dim))
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		v := 1 + rng.Intn(12)
		corpus := make([][]string, 1+rng.Intn(30))
		for i := range corpus {
			corpus[i] = make([]string, rng.Intn(12))
			for j := range corpus[i] {
				corpus[i][j] = fmt.Sprint("w", rng.Intn(v))
			}
		}
		cfg := Config{
			Dim: 1 + rng.Intn(33), Window: 1 + rng.Intn(5), Negatives: 1 + rng.Intn(8),
			Epochs: 1 + rng.Intn(3), LR: 0.05, MinCount: 1 + rng.Intn(3),
			Seed: rng.Int63(), TableBits: 1 + rng.Intn(12),
		}
		checkMatchesOracle(t, corpus, cfg)
	}
}

// ringCorpus is 9 sentences of 30 distinct words each from a 40-word
// vocabulary, so that a pair's center word names its position.
func ringCorpus() [][]string {
	rng := rand.New(rand.NewSource(5))
	out := make([][]string, 9)
	for i := range out {
		for _, w := range rng.Perm(40)[:30] {
			out[i] = append(out[i], fmt.Sprint("w", w))
		}
	}
	return out
}

// ringConfig is ringCorpus's config at width dim: Negatives cycles through
// 1 to 8 and the table through 32 to 4,096 entries.
func ringConfig(dim int) Config {
	return Config{Dim: dim, Window: 4, Negatives: 1 + (dim-1)%8, Epochs: 2, LR: 0.05,
		MinCount: 1, Seed: int64(dim), TableBits: 5 + dim%8}
}

// produced runs t's producer alone and returns every pair record it sends,
// in order, and the chunk each came in.
func produced(t *trainer) (recs [][]int32, chunk []int) {
	free, full := make(chan []int32, ringChunks), make(chan []int32, ringChunks)
	for range ringChunks {
		free <- make([]int32, chunkPairs*t.recLen())
	}
	go t.produce(free, full)
	for c := 0; ; c++ {
		recs1, ok := <-full
		if !ok {
			return recs, chunk
		}
		for i := 0; i < len(recs1); i += t.recLen() {
			recs = append(recs, slices.Clone(recs1[i:][:t.recLen()]))
			chunk = append(chunk, c)
		}
		free <- recs1[:cap(recs1)]
	}
}

// TestRingCorpusCoversTheRing checks that TestTrainMatchesOracle's
// ringCorpus cases reach what the split trainer must get right: more
// chunks than the ring holds, a chunk boundary between two pairs of one
// center, runs longer than four rows, and pairs cut into two or more runs.
func TestRingCorpusCoversTheRing(t *testing.T) {
	var chunks, longest, split int
	boundaryInWindow := false
	for dim := 1; dim <= 33; dim++ {
		tr, err := newTrainer(ringCorpus(), ringConfig(dim))
		if err != nil {
			t.Fatal(err)
		}
		recs, chunk := produced(tr)
		chunks = max(chunks, chunk[len(chunk)-1]+1)
		for i, rec := range recs {
			runs := rec[5+tr.cfg.Negatives:][:rec[3]]
			longest = max(longest, int(slices.Max(runs)))
			if len(runs) > 1 {
				split++
			}
			if i > 0 && chunk[i] != chunk[i-1] && rec[0] == recs[i-1][0] && rec[1] == recs[i-1][1] {
				boundaryInWindow = true
			}
		}
	}
	if chunks <= ringChunks || !boundaryInWindow || longest <= 4 || split == 0 {
		t.Fatalf("ringCorpus fills %d chunks (want > %d), boundary inside a window %v, longest run %d (want > 4), %d split pairs (want > 0)",
			chunks, ringChunks, boundaryInWindow, longest, split)
	}
}

// TestConcurrentTrains runs two Trains at once, each on its own goroutine
// with its own producer, and holds each to its serial run bit for bit.
func TestConcurrentTrains(t *testing.T) {
	corpora := [][][]string{loadCorpus(t), ringCorpus()}
	cfgs := []Config{fitConfig(), ringConfig(12)}
	want := make([]*Model, 2)
	for i := range want {
		m, err := Train(corpora[i], cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	got := make([]*Model, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = Train(corpora[i], cfgs[i])
		}()
	}
	wg.Wait()
	for i := range want {
		for w, id := range want[i].Vocab {
			for d, v := range want[i].In[id] {
				if g := got[i].In[id][d]; math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("corpus %d: %q[%d] = %v concurrently, %v serially", i, w, d, g, v)
				}
			}
		}
	}
}

// FuzzWord2Vec is TestTrainMatchesOracle on fuzzed corpora. The first
// seven bytes give the vocabulary size (1 to 8 words), Dim (1 to 33),
// Negatives (1 to 8), Window (1 to 5), MinCount (1 to 3), TableBits (1 to
// 12) with Epochs (1 to 3), and the seed; each byte after them is a word,
// or a sentence break when its top three bits are set.
func FuzzWord2Vec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		v := 1 + int(data[0])%8
		cfg := Config{
			Dim: 1 + int(data[1])%33, Negatives: 1 + int(data[2])%8, Window: 1 + int(data[3])%5,
			MinCount: 1 + int(data[4])%3, TableBits: 1 + int(data[5]&15)%12, Epochs: 1 + int(data[5]>>4)%3,
			LR: 0.05, Seed: int64(data[6]),
		}
		corpus := [][]string{nil}
		for _, b := range data[7:] {
			if b>>5 == 7 {
				corpus = append(corpus, nil)
				continue
			}
			last := len(corpus) - 1
			corpus[last] = append(corpus[last], fmt.Sprint("w", int(b)%v))
		}
		checkMatchesOracle(t, corpus, cfg)
	})
}

// TestTrainAllocs bounds Train's allocations on the benchmark's corpus:
// the sentences are encoded into one flat slice, the embeddings are one
// slice each and the per-pair scratch is allocated once per call. It made
// 1,674 allocations, one slice per sentence and per row among them; it
// makes 28: one per buffer, and the growth of the vocabulary's maps.
func TestTrainAllocs(t *testing.T) {
	corpus, cfg := loadCorpus(t), fitConfig()
	const bound = 40
	if n := testing.AllocsPerRun(3, func() {
		if _, err := Train(corpus, cfg); err != nil {
			t.Fatal(err)
		}
	}); n > bound {
		t.Fatalf("Train made %v allocations on testdata/corpus1000.txt, want at most %d", n, bound)
	}
}

// BenchmarkTrain fits the encoder's word2vec on the benchmark's corpus.
func BenchmarkTrain(b *testing.B) {
	corpus, cfg := loadCorpus(b), fitConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(corpus, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
