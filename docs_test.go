package raal

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"raal/internal/experiments"
)

var (
	docMakeRef     = regexp.MustCompile("`make((?:\\s+[a-z][a-z0-9-]*)+)`")
	docExpRef      = regexp.MustCompile(`raalbench\b[^\n` + "`" + `]*?\s-exp[ =](\{[^}]*\}|[a-z0-9]+)`)
	docResultsRef  = regexp.MustCompile(`results/[A-Za-z0-9_./<>*-]*`)
	makeTarget     = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	docPlaceholder = regexp.MustCompile(`<[^>]*>`)
)

// TestDocsNameThingsThatExist keeps the prose honest about the three
// things it tells a reader to type or open: every `make <target>` is a
// Makefile target, every `raalbench -exp <name>` is a registered
// experiment, and every results/ path exists (a <placeholder> or * in a
// path must match at least one file).
func TestDocsNameThingsThatExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	exps := map[string]bool{"all": true}
	for _, n := range experiments.Names() {
		exps[n] = true
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, m := range docMakeRef.FindAllStringSubmatch(text, -1) {
			for _, target := range strings.Fields(m[1]) {
				if !targets[target] {
					t.Errorf("%s: `make %s` is not a Makefile target", doc, target)
				}
			}
		}
		for _, m := range docExpRef.FindAllStringSubmatch(text, -1) {
			for _, name := range strings.Split(strings.Trim(m[1], "{}"), ",") {
				if !exps[name] {
					t.Errorf("%s: `raalbench -exp %s` is not a registered experiment", doc, name)
				}
			}
		}
		for _, path := range docResultsRef.FindAllString(text, -1) {
			path = strings.TrimRight(path, ".-")
			pattern := docPlaceholder.ReplaceAllString(path, "*")
			if found, _ := filepath.Glob(pattern); len(found) == 0 {
				t.Errorf("%s: %s does not exist", doc, path)
			}
		}
	}
}
