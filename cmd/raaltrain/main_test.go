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

// tiny is the smallest corpus that trains: a dozen queries at scale 0.03
// for one epoch.
var tiny = []string{"-scale", "0.03", "-queries", "12", "-epochs", "1"}

func train(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), append(append([]string{}, tiny...), args...), &stdout, &stderr)
	return stdout.String(), err
}

// raaltrain writes a model that loads, and a checkpoint that resumes.
func TestTrainWritesModelAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	model, ck := filepath.Join(dir, "m.raal"), filepath.Join(dir, "ck.raal")
	out, err := train(t, "-out", model, "-checkpoint", ck)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"epoch  1: loss", "trained RAAL", "model saved to", "checkpoint saved to"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	f, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := raal.LoadCostModel(f); err != nil {
		t.Fatalf("-out file does not load: %v", err)
	}
	if out, err = train(t, "-resume", ck); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "resuming RAAL from "+ck+" (1 epochs already trained)") {
		t.Errorf("resume did not continue the checkpoint:\n%s", out)
	}
}

// An explicit -variant that differs from the checkpoint's is refused,
// RAAL (the flag's default) included; without -variant the checkpoint's
// architecture continues.
func TestResumeRefusesOtherVariant(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.raal")
	if _, err := train(t, "-variant", "NE-LSTM", "-checkpoint", ck); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"RAAL", "RAAC"} {
		_, err := train(t, "-resume", ck, "-variant", v)
		if err == nil || !strings.Contains(err.Error(), "holds a NE-LSTM model but -variant asked for "+v) {
			t.Errorf("-resume an NE-LSTM checkpoint with -variant %s: error %v", v, err)
		}
	}
	out, err := train(t, "-resume", ck, "-variant", "NE-LSTM")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "trained NE-LSTM") {
		t.Errorf("resume with the matching -variant:\n%s", out)
	}
	if out, err = train(t, "-resume", ck); err != nil || !strings.Contains(out, "resuming NE-LSTM") {
		t.Errorf("resume without -variant: %v\n%s", err, out)
	}
}

func TestBadInvocationsReturnErrors(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "m.raal")
	if _, err := train(t, "-out", model); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"unknown variant":     {"-variant", "LSTM"},
		"unknown flag":        {"-workers", "2"},
		"missing checkpoint":  {"-resume", filepath.Join(dir, "nope")},
		"model as checkpoint": {"-resume", model},
		"unwritable -out":     {"-out", filepath.Join(dir, "no", "such", "dir")},
	} {
		if _, err := train(t, args...); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
