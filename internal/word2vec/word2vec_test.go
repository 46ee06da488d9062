package word2vec

import (
	"math"
	"math/rand"
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
