package main

// The bench harness's own gate: the suite runs end to end in smoke mode and
// the emitted JSON is well-formed, schema-tagged, and complete — the
// acceptance criterion behind CI's artifact upload.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/data"
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
		"bias/hybrid-gamma=2", "bias/hybrid-gamma=3", "bias/hybrid-gamma=4",
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

// TestCheckpointDiskIOPerOp: the checkpointed scenarios' syncs/op and disk
// bytes/op are per-run counts decided by the code, so they read the same at
// one iteration and at three — what lets the gate fail on them under
// -quick's single iteration — and delta chains issue fewer of both than
// all-full checkpointing.
func TestCheckpointDiskIOPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the checkpointed pipeline scenarios")
	}
	records := data.WebViewLike(benchSeed).Generate(benchRecords)
	perOp := map[int]map[string]float64{}
	for _, fullEvery := range []int{1, 16} {
		for _, bt := range []string{"1x", "3x"} {
			if err := setBenchtime(bt); err != nil {
				t.Fatal(err)
			}
			got := testing.Benchmark(benchPublish(records, 2, fullEvery)).Extra
			if want := perOp[fullEvery]; want != nil &&
				(got["syncs/op"] != want["syncs/op"] || got["disk-B/op"] != want["disk-B/op"]) {
				t.Errorf("fullEvery=%d: %v at benchtime %s, %v at 1x", fullEvery, got, bt, want)
			}
			perOp[fullEvery] = got
		}
	}
	if err := setBenchtime("1x"); err != nil {
		t.Fatal(err)
	}
	full, delta := perOp[1], perOp[16]
	if !(0 < delta["syncs/op"] && delta["syncs/op"] < full["syncs/op"]) ||
		!(0 < delta["disk-B/op"] && delta["disk-B/op"] < full["disk-B/op"]) {
		t.Errorf("delta chains %v do not undercut all-full checkpointing %v", delta, full)
	}
	t.Logf("all-full %v, delta %v", full, delta)
}

// TestQuickRunKeepsBaseline: without -out, only a full run writes the
// checked-in baseline; a -quick run's one-iteration report goes to
// BENCH_fresh.json, so the local form of the CI gate (`bench -quick -diff
// BENCH_pipeline.json`) leaves the baseline it compares against intact.
func TestQuickRunKeepsBaseline(t *testing.T) {
	if got := defaultOut(true); got != "BENCH_fresh.json" {
		t.Errorf("-quick writes %q by default, want BENCH_fresh.json", got)
	}
	if got := defaultOut(false); got != "BENCH_pipeline.json" {
		t.Errorf("a full run writes %q by default, want BENCH_pipeline.json", got)
	}
}
