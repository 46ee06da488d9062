package raal

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"raal/internal/fleet"
	"raal/internal/online"
	"raal/internal/serve"
	"raal/internal/telemetry"
)

var (
	exposedFamily = regexp.MustCompile(`(?m)^# TYPE (\S+) (\S+)$`)
	catalogueRow  = regexp.MustCompile("(?m)^\\| `(raal_[a-z0-9_]+)(?:\\{[a-z_]+\\})?` \\| ([a-z]+) \\|")
	servingFamily = regexp.MustCompile(`^raal_(serve|fleet|online)_`)
)

// TestReadmeMetricCatalogue holds README's metric table to what the
// serving, fleet and online metric sets register: every family they
// expose on /metrics has a row giving its type, and every
// raal_{serve,fleet,online}_* row names a registered family.
func TestReadmeMetricCatalogue(t *testing.T) {
	reg := telemetry.NewRegistry()
	serve.NewMetrics(reg)
	fleet.NewMetrics(reg, []string{"r0"})
	online.NewMetrics(reg)
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	registered := map[string]string{}
	for _, m := range exposedFamily.FindAllStringSubmatch(text.String(), -1) {
		registered[m[1]] = m[2]
	}
	if len(registered) == 0 {
		t.Fatal("the registry exposed no family")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, m := range catalogueRow.FindAllStringSubmatch(string(readme), -1) {
		rows[m[1]] = m[2]
	}

	for _, name := range sortedKeys(registered) {
		switch kind, ok := rows[name]; {
		case !ok:
			t.Errorf("registered family %s (%s) has no row in README's metric table", name, registered[name])
		case kind != registered[name]:
			t.Errorf("README lists %s as a %s, it is registered as a %s", name, kind, registered[name])
		}
	}
	for _, name := range sortedKeys(rows) {
		if servingFamily.MatchString(name) && registered[name] == "" {
			t.Errorf("README's metric table lists %s, which no metric set registers", name)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
