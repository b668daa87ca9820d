package server

// The observability doc gate, moved here from internal/pipeline: the server
// package sits above the pipeline, publisher, flight recorder AND its own
// instruments, so it is the one place the FULL metric namespace can be
// assembled against OBSERVABILITY.md.

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// docMetricName matches the first column of the OBSERVABILITY.md metric
// tables: | `butterfly_...` | type | ...
var docMetricName = regexp.MustCompile("^\\| `(butterfly_[a-z0-9_]+)`")

// TestObservabilityDocSync is the doc gate of the acceptance criteria:
// OBSERVABILITY.md's metric tables and the live registry must list exactly
// the same names. It registers the FULL instrument set (pipeline, publisher,
// flight recorder, and the server layer) without running a stream —
// registration alone defines the namespace.
func TestObservabilityDocSync(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipeline.RegisterMetrics(reg)
	pub, err := core.NewPublisher(
		core.Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5}, nil, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	pub.SetMetrics(reg)
	RegisterMetrics(reg)
	registered := reg.Names()
	if len(registered) == 0 {
		t.Fatal("no metrics registered")
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatalf("OBSERVABILITY.md unreadable: %v", err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if m := docMetricName.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("no metric tables found in OBSERVABILITY.md")
	}
	for _, name := range registered {
		if !documented[name] {
			t.Errorf("metric %s is emitted by the code but missing from OBSERVABILITY.md", name)
		}
		delete(documented, name)
	}
	leftovers := make([]string, 0, len(documented))
	for name := range documented {
		leftovers = append(leftovers, name)
	}
	sort.Strings(leftovers)
	for _, name := range leftovers {
		t.Errorf("metric %s is documented in OBSERVABILITY.md but not registered by the code", name)
	}
}
