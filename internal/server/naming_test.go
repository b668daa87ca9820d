package server

// A dependency-free promlint: every instrument the codebase can register —
// pipeline, publisher, flight recorder, WAL, server — must follow the
// Prometheus naming conventions OBSERVABILITY.md promises. Registration
// alone defines the namespace, so this runs without starting a stream,
// and CI gates on it next to the doc-sync test.

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

var (
	metricNameRE = regexp.MustCompile(`^butterfly_[a-z0-9_]+$`)
	labelKeyRE   = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)=`)
	snakeKeyRE   = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

func TestTelemetryNamingConventions(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipeline.RegisterMetrics(reg)
	pub, err := core.NewPublisher(
		core.Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5}, nil, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	pub.SetMetrics(reg)
	RegisterMetrics(reg)

	families := reg.Snapshot()
	if len(families) == 0 {
		t.Fatal("no metrics registered")
	}
	for _, fam := range families {
		name := fam.Name
		if !metricNameRE.MatchString(name) {
			t.Errorf("%s: name must match %s (snake_case, butterfly_ prefix)", name, metricNameRE)
		}
		if strings.Contains(name, "__") || strings.HasSuffix(name, "_") {
			t.Errorf("%s: name has empty segments", name)
		}
		// Reserved suffixes: the Prometheus text format synthesizes these
		// series itself for histograms, so a base name must never claim them.
		for _, reserved := range []string{"_count", "_sum", "_bucket"} {
			if strings.HasSuffix(name, reserved) {
				t.Errorf("%s: %s is a reserved histogram-series suffix", name, reserved)
			}
		}
		switch fam.Type {
		case telemetry.TypeCounter:
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("%s: counters must end in _total", name)
			}
		case telemetry.TypeHistogram:
			if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
				t.Errorf("%s: histograms must carry a base unit suffix (_seconds or _bytes)", name)
			}
		default:
			if strings.HasSuffix(name, "_total") {
				t.Errorf("%s: _total implies a counter, but the family is a %s", name, fam.Type)
			}
		}
		if fam.Help == "" {
			t.Errorf("%s: help string is empty", name)
			continue
		}
		if first := fam.Help[0]; first < 'A' || first > 'Z' {
			t.Errorf("%s: help %q should start with a capital letter", name, fam.Help)
		}
		if !strings.HasSuffix(fam.Help, ".") {
			t.Errorf("%s: help %q should end with a period", name, fam.Help)
		}
		for _, series := range fam.Series {
			for _, m := range labelKeyRE.FindAllStringSubmatch(series.Labels, -1) {
				if !snakeKeyRE.MatchString(m[1]) {
					t.Errorf("%s: label key %q is not snake_case", name, m[1])
				}
			}
		}
	}
}
