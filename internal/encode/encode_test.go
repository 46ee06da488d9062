package encode

import (
	"reflect"
	"slices"
	"testing"

	"raal/internal/cardest"
	"raal/internal/datagen"
	"raal/internal/logical"
	"raal/internal/physical"
	"raal/internal/sparksim"
	"raal/internal/sql"
)

func TestTokenizeStatement(t *testing.T) {
	toks := Tokenize("Filter ((mk.keyword_id < 2560) && mk.movie_id IS NOT NULL)")
	want := map[string]bool{"filter": true, "mk.keyword_id": true, "<": true, "num3": true, "&&": true, "is": true, "not": true, "null": true}
	got := map[string]bool{}
	for _, tok := range toks {
		got[tok] = true
	}
	for w := range want {
		if !got[w] {
			t.Fatalf("missing token %q in %v", w, toks)
		}
	}
}

func TestTokenizeNumberBuckets(t *testing.T) {
	cases := map[string]string{
		"x < 5":     "num0",
		"x < 42":    "num1",
		"x < 999":   "num2",
		"x < 71692": "num4",
		"x < -300":  "num2",
		"x < 0":     "num0",
	}
	for stmt, want := range cases {
		found := false
		for _, tok := range Tokenize(stmt) {
			if tok == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Tokenize(%q) missing %q: %v", stmt, want, Tokenize(stmt))
		}
	}
}

func buildPlans(t testing.TB, queries ...string) []*physical.Plan {
	t.Helper()
	db := datagen.IMDB(0.03, 1)
	est, err := cardest.New(db, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	binder := logical.NewBinder(db)
	planner := physical.NewPlanner(est)
	var plans []*physical.Plan
	for _, qs := range queries {
		stmt, err := sql.Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		q, err := binder.Bind(stmt)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := planner.Enumerate(q)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, ps...)
	}
	return plans
}

var testQueries = []string{
	`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 500`,
	`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id AND mc.company_id < 100`,
	`SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk
		WHERE t.id = mc.movie_id AND t.id = mk.movie_id AND mk.keyword_id < 50`,
}

func fitEncoder(t testing.TB, mode SemanticMode) (*Encoder, []*physical.Plan) {
	t.Helper()
	plans := buildPlans(t, testQueries...)
	cfg := DefaultConfig()
	cfg.Mode = mode
	enc, err := Fit(plans, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return enc, plans
}

func TestEncodePlanShape(t *testing.T) {
	enc, plans := fitEncoder(t, Word2Vec)
	res := sparksim.DefaultResources()
	for _, p := range plans {
		s := enc.EncodePlan(p, res)
		if s.Nodes.Rows != enc.MaxNodes() || s.Nodes.Cols != enc.NodeDim() {
			t.Fatalf("node matrix %dx%d, want %dx%d", s.Nodes.Rows, s.Nodes.Cols, enc.MaxNodes(), enc.NodeDim())
		}
		if len(s.Mask) != enc.MaxNodes() || len(s.Children) != enc.MaxNodes() {
			t.Fatal("mask/children length wrong")
		}
		if len(s.Resource) != sparksim.NumFeatures {
			t.Fatalf("resource vector length %d", len(s.Resource))
		}
		if len(s.Stats) != NumStats {
			t.Fatalf("stats vector length %d", len(s.Stats))
		}
	}
}

func TestMaskMatchesPlanLength(t *testing.T) {
	enc, plans := fitEncoder(t, Word2Vec)
	s := enc.EncodePlan(plans[0], sparksim.DefaultResources())
	count := 0
	for _, m := range s.Mask {
		if m {
			count++
		}
	}
	want := len(plans[0].Nodes)
	if want > enc.MaxNodes() {
		want = enc.MaxNodes()
	}
	if count != want {
		t.Fatalf("mask count %d, want %d", count, want)
	}
	// Padding rows must be all zero.
	for i := count; i < enc.MaxNodes(); i++ {
		for _, v := range s.Nodes.Row(i) {
			if v != 0 {
				t.Fatal("padding row not zero")
			}
		}
	}
}

func TestStructureEmbeddingSigns(t *testing.T) {
	enc, plans := fitEncoder(t, Word2Vec)
	p := plans[0]
	if len(p.Nodes) > enc.MaxNodes() {
		t.Skip("plan truncated; sign test needs full plan")
	}
	s := enc.EncodePlan(p, sparksim.DefaultResources())
	off := enc.NodeDim() - enc.MaxNodes() - nodeStatFeatures
	for i, n := range p.Nodes {
		row := s.Nodes.Row(i)
		for _, c := range n.Children {
			if row[off+c.ID] != 1 {
				t.Fatalf("node %d should mark child %d with +1", i, c.ID)
			}
			if !s.Children[i][c.ID] {
				t.Fatalf("children mask missing %d→%d", i, c.ID)
			}
			// And the child must mark the parent with −1.
			if s.Nodes.Row(c.ID)[off+i] != -1 {
				t.Fatalf("node %d should mark parent %d with -1", c.ID, i)
			}
		}
	}
}

func TestSimilarNodesGetSimilarEmbeddings(t *testing.T) {
	// Two scans of the same table with slightly different literals should
	// embed closer than a scan vs a join.
	enc, plans := fitEncoder(t, Word2Vec)
	var scanA, scanB, join []float64
	for _, p := range plans {
		s := enc.EncodePlan(p, sparksim.DefaultResources())
		for i, n := range p.Nodes {
			if i >= enc.MaxNodes() {
				break
			}
			sem := s.Nodes.Row(i)[:16]
			switch {
			case n.Op == physical.FileScan && n.Table == "movie_keyword" && scanA == nil:
				scanA = append([]float64(nil), sem...)
			case n.Op == physical.FileScan && n.Table == "movie_keyword" && scanB == nil:
				scanB = append([]float64(nil), sem...)
			case n.Op == physical.SortMergeJoin && join == nil:
				join = append([]float64(nil), sem...)
			}
		}
	}
	if scanA == nil || scanB == nil || join == nil {
		t.Skip("not enough node variety")
	}
	simSame := cosine(scanA, scanB)
	simDiff := cosine(scanA, join)
	if simSame <= simDiff {
		t.Fatalf("scan-scan similarity %v should exceed scan-join %v", simSame, simDiff)
	}
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (sqrt(na) * sqrt(nb))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func TestOneHotMode(t *testing.T) {
	enc, plans := fitEncoder(t, OneHot)
	s := enc.EncodePlan(plans[0], sparksim.DefaultResources())
	// Exactly one hot bit in the semantic prefix of each real row.
	for i, m := range s.Mask {
		if !m {
			continue
		}
		ones := 0
		for _, v := range s.Nodes.Row(i)[:physical.NumOpTypes] {
			if v == 1 {
				ones++
			} else if v != 0 {
				t.Fatalf("one-hot row has non-binary value %v", v)
			}
		}
		if ones != 1 {
			t.Fatalf("row %d has %d hot bits", i, ones)
		}
	}
}

func TestResourceNormalization(t *testing.T) {
	enc, plans := fitEncoder(t, Word2Vec)
	res := sparksim.DefaultResources()
	s := enc.EncodePlan(plans[0], res)
	for i, v := range s.Resource {
		if v < 0 || v > 1 {
			t.Fatalf("resource feature %d = %v outside [0,1]", i, v)
		}
	}
	// Larger allocation ⇒ larger normalized memory feature.
	res2 := res
	res2.ExecMemMB *= 2
	s2 := enc.EncodePlan(plans[0], res2)
	if s2.Resource[4] <= s.Resource[4] {
		t.Fatal("memory feature should grow with allocation")
	}
}

func TestStatsVectorBounded(t *testing.T) {
	enc, plans := fitEncoder(t, Word2Vec)
	for _, p := range plans {
		s := enc.EncodePlan(p, sparksim.DefaultResources())
		for i, v := range s.Stats {
			if v < 0 || v > 2 {
				t.Fatalf("stats feature %d = %v out of range", i, v)
			}
		}
	}
}

func TestFitRequiresPositiveMaxNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxNodes = 0
	if _, err := Fit(nil, cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestFitEmptyCorpusW2VError(t *testing.T) {
	if _, err := Fit(nil, DefaultConfig()); err == nil {
		t.Fatal("expected word2vec training error on empty corpus")
	}
}

// TestPlanPartSharing pins the plan/allocation split of a sample: pricing a
// plan part under an allocation equals encoding the pair in one go, the
// copies share the plan part (and a memo slot, when one was enabled) by
// identity, and SamePlan tells equal contents from shared storage.
func TestPlanPartSharing(t *testing.T) {
	enc, plans := fitEncoder(t, Word2Vec)
	res := sparksim.DefaultResources()
	res2 := res
	res2.ExecMemMB *= 2

	part := enc.EncodePlanPart(plans[1])
	if part.Resource != nil || part.Memo != nil {
		t.Fatalf("a fresh plan part has resource %v and memo %v, want neither", part.Resource, part.Memo)
	}
	whole := enc.EncodePlan(plans[1], res)
	a, b := part.WithResource(enc.EncodeResources(res)), part.WithResource(enc.EncodeResources(res2))
	if !reflect.DeepEqual(a, whole) {
		t.Fatal("EncodePlanPart + WithResource differs from EncodePlan")
	}
	if !a.SamePlan(b) || !a.SamePlan(part) {
		t.Fatal("allocations of one plan part must be the same plan")
	}
	if a.SamePlan(whole) {
		t.Fatal("an independently encoded sample is equal, not shared: SamePlan compares storage")
	}
	if reflect.DeepEqual(a.Resource, b.Resource) {
		t.Fatal("two allocations encoded to the same resource vector")
	}
	halfBuilt := *a
	halfBuilt.Stats = append([]float64(nil), a.Stats...)
	if a.SamePlan(&halfBuilt) {
		t.Fatal("a sample sharing Nodes but not Stats must count as another plan")
	}

	part.Memo = new(PlanMemo)
	c := part.WithResource(a.Resource)
	if c.Memo == nil || c.Memo != part.Memo {
		t.Fatal("copies of a memo-enabled plan part must share its slot")
	}
	c.Memo.Store("prefix")
	if got := part.Memo.Load(); got != "prefix" {
		t.Fatalf("slot holds %v, want the stored value", got)
	}
	c.Memo = nil
	if c.Memo != nil || part.Memo == nil {
		t.Fatal("niling a copy's Memo must detach the copy and leave the plan part's slot alone")
	}
}

// TestEncodePlanPartAllocsBounded: once a plan's statements are rendered,
// encoding it makes no per-node or per-token allocation, from the 5-node
// scan to the 19-node join of the test corpus.
func TestEncodePlanPartAllocsBounded(t *testing.T) {
	enc, plans := fitEncoder(t, Word2Vec)
	for _, p := range plans {
		p.Statements()
		if a := testing.AllocsPerRun(20, func() { enc.EncodePlanPart(p) }); a > 12 {
			t.Fatalf("EncodePlanPart of a %d-node plan allocates %v times, want <= 12", len(p.Nodes), a)
		}
	}
}

// TestCorpusAllocs pins Fit's corpus build: its sentences are Tokenize's,
// statement by statement, and it allocates a few growing slices, the
// intern map and one string per distinct folded token, not a slice per
// statement or a string per token: 45 for the test plans' 167 statements,
// where one Tokenize call per statement makes 1,378. Twice the plans costs
// at most three more slice growths.
func TestCorpusAllocs(t *testing.T) {
	plans := buildPlans(t, testQueries...)
	sentences := corpus(plans)
	i := 0
	for _, p := range plans {
		for _, stmt := range p.Statements() {
			if want := Tokenize(stmt); !slices.Equal(sentences[i], want) {
				t.Fatalf("sentence %d = %q, want Tokenize(%q) = %q", i, sentences[i], stmt, want)
			}
			i++
		}
	}
	if i != len(sentences) {
		t.Fatalf("%d sentences from %d statements", len(sentences), i)
	}
	once := testing.AllocsPerRun(20, func() { corpus(plans) })
	twice := testing.AllocsPerRun(20, func() { corpus(append(plans[:len(plans):len(plans)], plans...)) })
	t.Logf("%d statements: %v allocations; twice the plans: %v", i, once, twice)
	if once > 45 || twice > once+3 {
		t.Errorf("corpus of %d statements made %v allocations, twice the plans %v; want at most 45 and 3 more", i, once, twice)
	}
}
