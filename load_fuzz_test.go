package raal

import (
	"bytes"
	"errors"
	"testing"

	"raal/internal/core"
	"raal/internal/encode"
)

// spliceCostModel writes a cost-model file from enc's section and net's:
// what Save writes when the two fit, and a file whose network does not
// fit its encoder otherwise.
func spliceCostModel(t testing.TB, enc *encode.Encoder, net *core.Model) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := core.WriteHeader(&b, costModelMagic, costModelVersion); err != nil {
		t.Fatal(err)
	}
	if err := enc.Save(&b); err != nil {
		t.Fatal(err)
	}
	if err := net.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestLoadCostModelRejectsMisfitNetwork splices a network whose input
// layer disagrees with the encoder in one dimension after the encoder
// section. Each file must be refused with a *core.InputError naming that
// dimension: loaded, its first estimate would panic on a shape mismatch.
func TestLoadCostModelRejectsMisfitNetwork(t *testing.T) {
	_, _, cm := sharedSystem(t)
	for _, c := range []struct {
		dim  string
		edit func(*core.Config)
	}{
		{"semantic dim", func(c *core.Config) { c.SemDim += 3 }},
		{"max nodes", func(c *core.Config) { c.MaxNodes -= 5 }},
		{"resource dim", func(c *core.Config) { c.ResDim++ }},
		{"stats dim", func(c *core.Config) { c.StatsDim-- }},
	} {
		t.Run(c.dim, func(t *testing.T) {
			cfg := cm.model.Cfg
			c.edit(&cfg)
			raw := spliceCostModel(t, cm.enc, core.NewModel(cm.Variant(), cfg))
			_, err := LoadCostModel(bytes.NewReader(raw))
			var ie *core.InputError
			if !errors.As(err, &ie) || ie.Dim != c.dim {
				t.Fatalf("LoadCostModel error = %v, want a *core.InputError on %s", err, c.dim)
			}
		})
	}
}

// FuzzLoadCostModel feeds arbitrary bytes to LoadCostModel and
// LoadCheckpoint. Either refuses with an error or returns a model that
// prices a fixed plan without panicking. Seeds: a small saved model and
// checkpoint, truncations of the model, and a network spliced after an
// encoder it does not fit.
func FuzzLoadCostModel(f *testing.F) {
	sys, err := Open(IMDB, 0.01, 1)
	if err != nil {
		f.Fatal(err)
	}
	plans, err := sys.Plan(`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id AND t.production_year > 2000`)
	if err != nil {
		f.Fatal(err)
	}
	plan := plans[0]
	enc, err := encode.Fit(plans, encode.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	cfg := encoderConfig(enc)
	cfg.Hidden, cfg.K = 4, 2
	saved := spliceCostModel(f, enc, core.NewModel(RAAL(), cfg))
	f.Add(saved)
	for _, n := range []int{0, 7, len(saved) / 3, len(saved) / 2, len(saved) - 9} {
		f.Add(saved[:n])
	}
	misfit := cfg
	misfit.SemDim, misfit.MaxNodes = cfg.SemDim+3, cfg.MaxNodes-5
	f.Add(spliceCostModel(f, enc, core.NewModel(RAAL(), misfit)))
	var ck bytes.Buffer
	if err := SaveCheckpoint(&ck, &CostModel{enc: enc, model: core.NewModel(RAAL(), cfg)}, core.NewTrainState()); err != nil {
		f.Fatal(err)
	}
	f.Add(ck.Bytes())

	res := DefaultResources()
	f.Fuzz(func(t *testing.T, data []byte) {
		if cm, err := LoadCostModel(bytes.NewReader(data)); err == nil {
			cm.Estimate(plan, res)
		}
		if cm, _, err := LoadCheckpoint(bytes.NewReader(data)); err == nil {
			cm.Estimate(plan, res)
		}
	})
}
