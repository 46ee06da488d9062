package raal

import (
	"io/fs"
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
	docTestRef     = regexp.MustCompile("`(?:[a-z][a-z0-9]*\\.)?((?:Test|Fuzz)[A-Za-z0-9_]*)(\\*?)`")
	testFunc       = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
)

// TestDocsNameThingsThatExist keeps the prose honest about the four
// things it tells a reader to type, open or look up: every `make <target>`
// is a Makefile target, every `raalbench -exp <name>` is a registered
// experiment, every results/ path exists (a <placeholder> or * in a path
// must match at least one file), and every backquoted `TestXxx` or
// `FuzzXxx` (`pkg.TestXxx`, or `TestXxx*` for a family) names a function
// in some _test.go file.
func TestDocsNameThingsThatExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	var tests []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, build caches
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			tests = append(tests, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
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
		for _, m := range docTestRef.FindAllStringSubmatch(text, -1) {
			found := false
			for _, name := range tests {
				found = found || name == m[1] || m[2] == "*" && strings.HasPrefix(name, m[1])
			}
			if !found {
				t.Errorf("%s: `%s%s` names no test function", doc, m[1], m[2])
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
