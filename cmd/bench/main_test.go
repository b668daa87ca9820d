package main

// The bench harness's own gate: the suite runs end to end in smoke mode and
// the emitted JSON is well-formed, schema-tagged, and complete — the
// acceptance criterion behind CI's artifact upload.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestBenchSuiteWellFormedJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("bench suite exercises full pipeline runs")
	}
	if err := setBenchtime("1x"); err != nil {
		t.Fatal(err)
	}
	rep := runSuite(true, "2026-01-01T00:00:00Z")
	path := filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	if err := writeReport(rep, path); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded report
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("BENCH_pipeline.json is not valid JSON: %v\n%s", err, raw)
	}
	if decoded.Schema != benchSchema {
		t.Errorf("schema = %q, want %q", decoded.Schema, benchSchema)
	}
	if decoded.Go == "" || decoded.GOOS == "" || decoded.GOARCH == "" {
		t.Errorf("toolchain fields incomplete: %+v", decoded)
	}

	wantScenarios := []string{
		"mine/eclat", "mine/moment",
		"bias/hybrid-gamma=2", "bias/hybrid-gamma=3",
		"publish/workers=1", "publish/workers=2", "publish/workers=8",
		"publish/checkpointed", "publish/checkpointed-delta",
	}
	if len(decoded.Scenarios) != len(wantScenarios) {
		t.Fatalf("suite ran %d scenarios, want %d: %+v", len(decoded.Scenarios), len(wantScenarios), decoded.Scenarios)
	}
	for i, sc := range decoded.Scenarios {
		if sc.Name != wantScenarios[i] {
			t.Errorf("scenario %d is %q, want %q", i, sc.Name, wantScenarios[i])
		}
		if sc.NsPerOp <= 0 || sc.Iterations <= 0 {
			t.Errorf("scenario %s measured nothing: %+v", sc.Name, sc)
		}
		if sc.WindowsPerOp > 0 && sc.WindowsPerSec <= 0 {
			t.Errorf("scenario %s has windows but no throughput: %+v", sc.Name, sc)
		}
	}
	for _, sc := range decoded.Scenarios[2:] { // one op covers every publication
		if sc.WindowsPerOp != benchWindows {
			t.Errorf("scenario %s windows_per_op = %d, want %d", sc.Name, sc.WindowsPerOp, benchWindows)
		}
	}
}
