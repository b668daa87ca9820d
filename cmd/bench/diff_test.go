package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mkReport builds a minimal comparable report around one publish scenario.
func mkReport(allocs, ns int64, wps float64) report {
	return report{
		Schema: benchSchema,
		CPUs:   4, GOMAXPROCS: 4,
		Scenarios: []result{{
			Name:          "publish/workers=1",
			Iterations:    3,
			NsPerOp:       ns,
			AllocsPerOp:   allocs,
			BytesPerOp:    1 << 20,
			WindowsPerOp:  benchWindows,
			WindowsPerSec: wps,
		}},
	}
}

// mkTaxReport builds a report with the plain workers=2 scenario plus a
// checkpointed-delta scenario, the pair the durability-tax ratio gate reads.
func mkTaxReport(quick bool, plainWPS, ckptWPS float64) report {
	mk := func(name string, wps float64) result {
		return result{
			Name: name, Iterations: 3, NsPerOp: 8_000_000, AllocsPerOp: 10000,
			BytesPerOp: 1 << 20, WindowsPerOp: benchWindows, WindowsPerSec: wps,
		}
	}
	return report{
		Schema: benchSchema,
		CPUs:   4, GOMAXPROCS: 4,
		Quick: quick,
		Scenarios: []result{
			mk(taxBaseScenario, plainWPS),
			mk("publish/checkpointed-delta", ckptWPS),
		},
	}
}

// withDiskIO sets the checkpointed scenario's syncs/op and disk bytes/op.
func withDiskIO(r report, syncs, bytes float64) report {
	r.Scenarios = append([]result(nil), r.Scenarios...)
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == "publish/checkpointed-delta" {
			r.Scenarios[i].SyncsPerOp, r.Scenarios[i].DiskBytesPerOp = syncs, bytes
		}
	}
	return r
}

// mkTierReport builds a comparable single-CPU report with the workers=1 and
// workers=2 publish tiers at the given windows/sec.
func mkTierReport(wps1, wps2 float64) report {
	mk := func(name string, wps float64) result {
		return result{
			Name: name, Iterations: 3, NsPerOp: 8_000_000, AllocsPerOp: 10000,
			BytesPerOp: 1 << 20, WindowsPerOp: benchWindows, WindowsPerSec: wps,
		}
	}
	return report{
		Schema: benchSchema,
		CPUs:   1, GOMAXPROCS: 1,
		Scenarios: []result{mk("publish/workers=1", wps1), mk("publish/workers=2", wps2)},
	}
}

func levelsFor(t *testing.T, findings []finding, scenario string) []string {
	t.Helper()
	var got []string
	for _, f := range findings {
		if f.scenario == scenario {
			got = append(got, f.level)
		}
	}
	return got
}

func TestCompareReports(t *testing.T) {
	base := mkReport(10000, 8_000_000, 800)
	tests := []struct {
		name      string
		baseline  report
		fresh     report
		wantFail  bool
		wantWarns int
		wantFails int
	}{
		{
			name:     "improvement passes",
			baseline: base,
			fresh:    mkReport(5000, 4_000_000, 1600),
		},
		{
			name:     "identical passes",
			baseline: base,
			fresh:    base,
		},
		{
			name:     "noise within tolerance passes",
			baseline: base,
			// allocs +20% (< 25%), windows/sec -10% (< 15%), ns +10% (< 15%)
			fresh: mkReport(12000, 8_800_000, 720),
		},
		{
			name:      "alloc regression fails",
			baseline:  base,
			fresh:     mkReport(12600, 8_000_000, 800), // +26%
			wantFail:  true,
			wantFails: 1,
		},
		{
			name:      "throughput regression fails",
			baseline:  base,
			fresh:     mkReport(10000, 8_000_000, 670), // -16.25%
			wantFail:  true,
			wantFails: 1,
		},
		{
			name:      "ns regression only warns",
			baseline:  base,
			fresh:     mkReport(10000, 9_600_000, 800), // ns +20%, wps unchanged
			wantWarns: 1,
		},
		{
			name:     "throughput regression degrades to warning under quick mode",
			baseline: base,
			fresh: func() report {
				r := mkReport(10000, 8_000_000, 500)
				r.Quick = true
				return r
			}(),
			wantWarns: 1,
		},
		{
			name:     "throughput regression degrades to warning under different cpu count",
			baseline: base,
			fresh: func() report {
				r := mkReport(10000, 8_000_000, 500)
				r.CPUs = 1
				r.GOMAXPROCS = 1
				return r
			}(),
			wantWarns: 1,
		},
		{
			// The tax ratio drops from 33% to 22% of plain throughput
			// (-33% > 25% tolerance): a wall-clock ratio, so it only warns,
			// like the absolute windows/sec drops in quick mode.
			name:      "durability tax drop only warns",
			baseline:  mkTaxReport(false, 2000, 660),
			fresh:     mkTaxReport(true, 1500, 330),
			wantWarns: 3, // the tax, and both scenarios' absolute windows/sec drops
		},
		{
			// A uniformly slower quick run preserves the tax ratio: the
			// checkpointed scenario stays WARN-only like its plain peer.
			name:      "slower box with preserved tax ratio passes",
			baseline:  mkTaxReport(false, 2000, 660),
			fresh:     mkTaxReport(true, 1000, 330),
			wantWarns: 2,
		},
		{
			// Same comparable context: the absolute windows/sec drop fails
			// on its own, and the tax warns alongside it.
			name:      "checkpointed regression under comparable context fails once",
			baseline:  mkTaxReport(false, 2000, 660),
			fresh:     mkTaxReport(false, 2000, 330),
			wantFail:  true,
			wantFails: 1,
			wantWarns: 1,
		},
		{
			// A data sync after every delta frame: 4 syncs/op become 10.
			name:      "sync growth fails in any context",
			baseline:  withDiskIO(mkTaxReport(false, 2000, 660), 4, 20000),
			fresh:     withDiskIO(mkTaxReport(true, 2000, 660), 10, 20000),
			wantFail:  true,
			wantFails: 1,
		},
		{
			name:      "one extra sync per op fails",
			baseline:  withDiskIO(mkTaxReport(false, 2000, 660), 4, 20000),
			fresh:     withDiskIO(mkTaxReport(false, 2000, 660), 5, 20000),
			wantFail:  true,
			wantFails: 1,
		},
		{
			// Full snapshots written where delta frames belong.
			name:      "disk bytes growth fails in any context",
			baseline:  withDiskIO(mkTaxReport(false, 2000, 660), 4, 20000),
			fresh:     withDiskIO(mkTaxReport(true, 2000, 660), 4, 60000),
			wantFail:  true,
			wantFails: 1,
		},
		{
			name:     "disk bytes within tolerance and fewer syncs pass",
			baseline: withDiskIO(mkTaxReport(false, 2000, 660), 4, 20000),
			fresh:    withDiskIO(mkTaxReport(false, 2000, 660), 3, 24000), // +20% bytes
		},
		{
			// On one CPU the workers=2 tier measures scheduling, so its drop
			// only warns; the workers=1 drop under the same context fails.
			name:      "parallel tier drop only warns at GOMAXPROCS=1",
			baseline:  mkTierReport(1000, 1000),
			fresh:     mkTierReport(800, 800),
			wantFail:  true,
			wantFails: 1,
			wantWarns: 1,
		},
		{
			name:     "alloc regression still fails under mismatched context",
			baseline: base,
			fresh: func() report {
				r := mkReport(20000, 8_000_000, 800)
				r.Quick = true
				return r
			}(),
			wantFail:  true,
			wantFails: 1,
		},
		{
			name:     "missing scenario fails",
			baseline: base,
			fresh: func() report {
				r := mkReport(10000, 8_000_000, 800)
				r.Scenarios[0].Name = "publish/renamed"
				return r
			}(),
			wantFail:  true,
			wantFails: 1,
			wantWarns: 1, // the renamed scenario has no baseline entry
		},
		{
			name: "new scenario without baseline warns",
			baseline: func() report {
				r := base
				return r
			}(),
			fresh: func() report {
				r := mkReport(10000, 8_000_000, 800)
				r.Scenarios = append(r.Scenarios, result{Name: "publish/extra", AllocsPerOp: 1, NsPerOp: 1})
				return r
			}(),
			wantWarns: 1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			findings := compareReports(tc.baseline, tc.fresh)
			var fails, warns int
			for _, f := range findings {
				switch f.level {
				case "FAIL":
					fails++
				case "WARN":
					warns++
				default:
					t.Errorf("unexpected level %q in %v", f.level, f)
				}
			}
			if hasFailures(findings) != tc.wantFail {
				t.Errorf("hasFailures = %v, want %v (findings: %v)", hasFailures(findings), tc.wantFail, findings)
			}
			if fails != tc.wantFails {
				t.Errorf("got %d FAIL findings, want %d: %v", fails, tc.wantFails, findings)
			}
			if warns != tc.wantWarns {
				t.Errorf("got %d WARN findings, want %d: %v", warns, tc.wantWarns, findings)
			}
		})
	}
}

func TestLoadBaselineErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	tests := []struct {
		name    string
		path    string
		wantErr string
	}{
		{"missing file", filepath.Join(dir, "nope.json"), "no such file"},
		{"malformed json", write("bad.json", "{not json"), "parsing baseline"},
		{"truncated json", write("trunc.json", `{"schema":"butterfly-bench/v1","scenarios":[`), "parsing baseline"},
		{"wrong schema", write("schema.json", `{"schema":"other/v9","scenarios":[]}`), "has schema"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loadBaseline(tc.path)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("loadBaseline(%s) error = %v, want containing %q", tc.path, err, tc.wantErr)
			}
		})
	}
}

// The checked-in baseline must itself load through the gate's loader.
func TestCheckedInBaselineLoads(t *testing.T) {
	rep, err := loadBaseline("../../BENCH_pipeline.json")
	if err != nil {
		t.Fatalf("checked-in baseline does not load: %v", err)
	}
	if len(rep.Scenarios) == 0 {
		t.Fatal("checked-in baseline has no scenarios")
	}
	for _, s := range rep.Scenarios {
		if s.AllocsPerOp <= 0 {
			t.Errorf("baseline scenario %s has allocs_per_op %d; the alloc gate needs a positive baseline", s.Name, s.AllocsPerOp)
		}
	}
}
