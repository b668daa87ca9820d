package main

// This file is the perf-regression gate behind `bench -diff`: a fresh run is
// compared scenario-by-scenario against the checked-in BENCH_pipeline.json
// and the process exits non-zero when the hot path got measurably worse.
//
// The comparison policy separates what the code decides from what the
// machine does:
//
//   - allocs/op, and the checkpointed scenarios' syncs/op and disk
//     bytes/op, are properties of the code — the same build allocates,
//     syncs and writes the same at any CPU or disk speed, even under
//     -quick's single iteration. They FAIL in any context: allocs/op and
//     disk bytes/op beyond countTolerance, syncs/op on any growth (each
//     sync is a policy decision, and the counts are small integers).
//   - windows/sec is wall-clock. Under comparable conditions (same quick
//     mode, CPU count, GOMAXPROCS) a drop beyond windowsTolerance FAILS;
//     when the contexts differ the drop degrades to a WARN, because a
//     one-iteration CI smoke run on a different box cannot indict the code.
//     The publish/workers=2 and =8 tiers measure scheduling overhead, not
//     parallel speedup, on fewer than two CPUs, so a fresh run with
//     GOMAXPROCS below 2 only WARNs on them too.
//   - the durability tax — each publish/checkpointed* scenario's
//     windows/sec as a fraction of the same run's publish/workers=2 — only
//     WARNs: it is fsync latency against CPU speed, a property of the box.
//     The syncs/op and disk bytes/op gates above hold the checkpointed
//     scenarios to what the code controls.
//   - ns/op only ever WARNs: it moves with windows/sec on the pipeline
//     scenarios and is pure noise on the mining microbenchmarks' short runs.
//
// A scenario present in the baseline but missing from the fresh run FAILS
// loudly (a renamed or deleted scenario silently un-gates itself otherwise);
// a new scenario without a baseline WARNs until the baseline is refreshed.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Regression tolerances, as fractions of the baseline value.
const (
	countTolerance   = 0.25 // allocs/op and disk bytes/op may grow this much before failing
	windowsTolerance = 0.15 // windows/sec may drop this much before failing
	nsTolerance      = 0.15 // ns/op beyond this warns (never fails)
	taxTolerance     = 0.25 // the checkpointed/plain throughput ratio may drop this much before warning
)

// taxBaseScenario is the uncheckpointed run the durability tax is measured
// against: the checkpointed scenarios use the same records and worker tier.
const taxBaseScenario = "publish/workers=2"

// finding is one comparison outcome worth reporting.
type finding struct {
	level    string // "FAIL" or "WARN"
	scenario string
	msg      string
}

func (f finding) String() string { return f.level + " " + f.scenario + ": " + f.msg }

func hasFailures(findings []finding) bool {
	for _, f := range findings {
		if f.level == "FAIL" {
			return true
		}
	}
	return false
}

// loadBaseline reads and validates a checked-in bench report.
func loadBaseline(path string) (report, error) {
	var rep report
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if rep.Schema != benchSchema {
		return rep, fmt.Errorf("baseline %s has schema %q, want %q", path, rep.Schema, benchSchema)
	}
	return rep, nil
}

// contextNote returns "" when the two reports were measured under comparable
// conditions, or the reason their wall-clock metrics are not comparable.
// GOMAXPROCS is compared only when both reports carry it (older baselines
// predate the field).
func contextNote(baseline, fresh report) string {
	switch {
	case baseline.Quick != fresh.Quick:
		return fmt.Sprintf("quick=%v vs baseline quick=%v", fresh.Quick, baseline.Quick)
	case baseline.CPUs != fresh.CPUs:
		return fmt.Sprintf("%d CPUs vs baseline %d", fresh.CPUs, baseline.CPUs)
	case baseline.GOMAXPROCS != 0 && fresh.GOMAXPROCS != 0 && baseline.GOMAXPROCS != fresh.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS=%d vs baseline %d", fresh.GOMAXPROCS, baseline.GOMAXPROCS)
	}
	return ""
}

// wallNote returns "" when scenario's wall-clock numbers are comparable
// between the two reports, or the reason they are not.
func wallNote(baseline, fresh report, scenario string) string {
	if note := contextNote(baseline, fresh); note != "" {
		return "context not comparable: " + note
	}
	if fresh.GOMAXPROCS < 2 && (scenario == "publish/workers=2" || scenario == "publish/workers=8") {
		return fmt.Sprintf("GOMAXPROCS=%d runs the worker tier on one CPU", fresh.GOMAXPROCS)
	}
	return ""
}

// countGrowth FAILs a deterministic per-op count that grew beyond tol over
// a positive baseline.
func countGrowth(scenario, metric string, base, cur, tol float64) []finding {
	if base <= 0 || cur <= base*(1+tol) {
		return nil
	}
	return []finding{{"FAIL", scenario, fmt.Sprintf("%s %.0f exceeds baseline %.0f by more than %.0f%%",
		metric, cur, base, tol*100)}}
}

// compareReports diffs a fresh run against the baseline and returns the
// findings, most severe first within each scenario. An empty slice means
// everything is within tolerance.
func compareReports(baseline, fresh report) []finding {
	var findings []finding
	freshByName := make(map[string]result, len(fresh.Scenarios))
	for _, r := range fresh.Scenarios {
		freshByName[r.Name] = r
	}
	baseByName := make(map[string]result, len(baseline.Scenarios))

	for _, base := range baseline.Scenarios {
		baseByName[base.Name] = base
		cur, ok := freshByName[base.Name]
		if !ok {
			findings = append(findings, finding{"FAIL", base.Name,
				"scenario in the baseline but missing from this run (renamed or deleted? refresh the baseline deliberately)"})
			continue
		}
		findings = append(findings, countGrowth(base.Name, "allocs/op",
			float64(base.AllocsPerOp), float64(cur.AllocsPerOp), countTolerance)...)
		findings = append(findings, countGrowth(base.Name, "syncs/op", base.SyncsPerOp, cur.SyncsPerOp, 0)...)
		findings = append(findings, countGrowth(base.Name, "disk bytes/op",
			base.DiskBytesPerOp, cur.DiskBytesPerOp, countTolerance)...)
		if base.WindowsPerSec > 0 && cur.WindowsPerSec > 0 {
			floor := base.WindowsPerSec * (1 - windowsTolerance)
			if cur.WindowsPerSec < floor {
				level := "FAIL"
				msg := fmt.Sprintf("windows/sec %.1f below baseline %.1f by more than %.0f%%",
					cur.WindowsPerSec, base.WindowsPerSec, windowsTolerance*100)
				if note := wallNote(baseline, fresh, base.Name); note != "" {
					level = "WARN"
					msg += " (" + note + ")"
				}
				findings = append(findings, finding{level, base.Name, msg})
			}
		}
		if f, ok := durabilityTax(base, cur, baseline, fresh); ok {
			findings = append(findings, f)
		}
		if base.NsPerOp > 0 {
			limit := float64(base.NsPerOp) * (1 + nsTolerance)
			if float64(cur.NsPerOp) > limit {
				findings = append(findings, finding{"WARN", base.Name,
					fmt.Sprintf("ns/op %d exceeds baseline %d by more than %.0f%% (noise-tolerant: never fails)",
						cur.NsPerOp, base.NsPerOp, nsTolerance*100)})
			}
		}
	}
	for _, cur := range fresh.Scenarios {
		if _, ok := baseByName[cur.Name]; !ok {
			findings = append(findings, finding{"WARN", cur.Name,
				"scenario has no baseline entry; refresh BENCH_pipeline.json to gate it"})
		}
	}
	return findings
}

// durabilityTax WARNs when a publish/checkpointed* scenario's throughput,
// as a fraction of the same run's taxBaseScenario, fell beyond taxTolerance.
// The ratio divides fsync latency by CPU speed, so it moves with the box;
// the syncs/op and disk bytes/op counts are what gate the code.
func durabilityTax(base, cur result, baseline, fresh report) (finding, bool) {
	if !strings.HasPrefix(base.Name, "publish/checkpointed") {
		return finding{}, false
	}
	basePlain := scenarioWPS(baseline, taxBaseScenario)
	curPlain := scenarioWPS(fresh, taxBaseScenario)
	if base.WindowsPerSec <= 0 || cur.WindowsPerSec <= 0 || basePlain <= 0 || curPlain <= 0 {
		return finding{}, false
	}
	baseRatio := base.WindowsPerSec / basePlain
	curRatio := cur.WindowsPerSec / curPlain
	if curRatio >= baseRatio*(1-taxTolerance) {
		return finding{}, false
	}
	return finding{"WARN", base.Name, fmt.Sprintf(
		"durability tax rose: %.0f%% of %s throughput, baseline %.0f%% (fsync latency against CPU speed: warns only)",
		curRatio*100, taxBaseScenario, baseRatio*100)}, true
}

func scenarioWPS(rep report, name string) float64 {
	for _, s := range rep.Scenarios {
		if s.Name == name {
			return s.WindowsPerSec
		}
	}
	return 0
}

// runDiff compares a fresh run against the baseline read from
// baselinePath, prints findings to stderr, and reports whether the gate
// passed.
func runDiff(baseline report, baselinePath string, fresh report) bool {
	findings := compareReports(baseline, fresh)
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "bench: diff: %s\n", f)
	}
	if hasFailures(findings) {
		return false
	}
	if len(findings) == 0 {
		fmt.Fprintf(os.Stderr, "bench: diff: no regressions against %s\n", baselinePath)
	} else {
		fmt.Fprintf(os.Stderr, "bench: diff: warnings only, gate passes\n")
	}
	return true
}
