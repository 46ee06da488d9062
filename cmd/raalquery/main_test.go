package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"raal"
)

const joinSQL = "SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id"

// tinyModel writes what `raaltrain -scale 0.03 -queries 12 -epochs 1
// -out` writes: the library calls that command makes, at its defaults.
func tinyModel(t *testing.T) string {
	t.Helper()
	sys, err := raal.Open(raal.IMDB, 0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sys.Collect(raal.CollectOptions{NumQueries: 12, ResStatesPerPlan: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cm, _, err := raal.TrainCostModel(ds, raal.RAAL(), raal.TrainOptions{Epochs: 1, LR: 3e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.raal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := cm.Save(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func query(args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), append([]string{"-scale", "0.03"}, args...), &stdout, &stderr)
	return stdout.String(), err
}

// raalquery loads a trained model, picks a plan with it, traces the
// pick, writes the cheapest plan as DOT and prints its result.
func TestQueryWithModel(t *testing.T) {
	model := tinyModel(t)
	dot := filepath.Join(t.TempDir(), "best.dot")
	out, err := query("-model", model, "-explain", "-trace", "-dot", dot, "-sql", joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"candidate plan(s)", "stage", "cheapest (simulated truth): plan",
		"RAAL model picks:  plan", "inference breakdown", "cheapest plan written to", "result: 1 row(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	if b, err := os.ReadFile(dot); err != nil || !strings.HasPrefix(string(b), "digraph") {
		t.Errorf("DOT file: %v %.40q", err, b)
	}
}

func TestBadInvocationsReturnErrors(t *testing.T) {
	corrupt := filepath.Join(t.TempDir(), "bad.raal")
	if err := os.WriteFile(corrupt, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"missing -sql":  nil,
		"bad SQL":       {"-sql", "SELECT FROM"},
		"unknown table": {"-sql", "SELECT COUNT(*) FROM nope"},
		"corrupt model": {"-model", corrupt, "-sql", joinSQL},
		"unknown flag":  {"-workers", "2"},
	} {
		if _, err := query(args...); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
