package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"raal/internal/experiments"
)

// An unknown -exp must fail before the report file is created: the default
// -outdir is the tracked results/ tree, and "micro" is what muscle memory
// types now that the timing harness is gone.
func TestUnknownExperimentCreatesNoFile(t *testing.T) {
	for _, name := range []string{"nope", "micro"} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{"-exp", name, "-outdir", dir}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %s: error %v, want one naming the unknown experiment", name, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %s: stdout %q, want nothing announced", name, stdout.String())
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			t.Errorf("-exp %s left %s behind", name, e.Name())
		}
	}
}

func TestListPrintsEveryExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatalf("-list: %v, stderr %q", err, stderr.String())
	}
	names := experiments.Names()
	if got := strings.Count(stdout.String(), "\n"); got != len(names) {
		t.Errorf("-list printed %d lines, want %d", got, len(names))
	}
	for _, n := range names {
		if !strings.Contains(stdout.String(), "  "+n+" ") {
			t.Errorf("-list omits %q", n)
		}
	}
}

// The online drill is the one experiment with a -json report: both the
// text report and BENCH_online.json must land in -outdir.
func TestOnlineWritesReportAndJSON(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "online", "-json", "-outdir", dir}, &stdout, &stderr); err != nil {
		t.Fatalf("%v, stderr %q", err, stderr.String())
	}
	report, err := os.ReadFile(filepath.Join(dir, "bench_results_online.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "online/drift-drill") {
		t.Errorf("report lacks the drill row:\n%s", report)
	}
	var res experiments.OnlineResult
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_online.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Benchmarks) != 1 || res.Benchmarks[0].Promotions == 0 {
		t.Errorf("BENCH_online.json = %+v, want one drill row with a promotion", res)
	}
}

// A lab experiment on a tiny corpus prepares the lab, prints its report
// to stdout only (-outdir ""), and writes its figure data with -csv.
func TestLabExperimentWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "sim", "-quick", "-scale", "0.03", "-queries", "12", "-states", "2", "-epochs", "1", "-csv", dir, "-outdir", ""}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("%v, stderr %q", err, stderr.String())
	}
	for _, want := range []string{"preparing lab:", "lab ready in", "=== sim "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	if data, err := os.ReadFile(filepath.Join(dir, "sim.csv")); err != nil || len(data) == 0 {
		t.Errorf("sim.csv: %v, %d bytes", err, len(data))
	}
}
