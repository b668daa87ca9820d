// Command bench is the repository's scripted perf harness: it runs a fixed
// scenario suite — Eclat and Moment mining, the hybrid scheme's bias
// optimization at γ = 2 and 3, pipeline publication at worker tiers 1/2/8,
// and checkpointed runs (all-full snapshots and delta chains) — through
// testing.Benchmark and
// writes the measurements to BENCH_pipeline.json (ns/op, windows/sec,
// allocs/op, bytes/op per scenario). The JSON is the machine-readable perf
// trajectory CI archives on every build, so a regression shows up as a
// diffable artifact rather than a hunch.
//
//	bench                 # full measurement, writes BENCH_pipeline.json
//	bench -quick          # CI smoke: one iteration per scenario
//	bench -out FILE       # write elsewhere
//
// Scenario inputs are fixed synthetic streams (data.WebViewLike, constant
// seeds), so runs are comparable across machines up to hardware speed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fec"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/mining/moment"
	"repro/internal/pipeline"
)

// benchSchema identifies the JSON layout for downstream tooling.
const benchSchema = "butterfly-bench/v1"

// Fixed scenario corpus: enough records for 7 published windows at the
// test-suite calibration, small enough that -quick finishes in seconds.
const (
	benchSeed         = 3
	benchRecords      = 900
	benchWindow       = 300
	benchPublishEvery = 100
	benchSupport      = 10
	benchVuln         = 5
	benchWindows      = 7 // publications per pipeline run: 300, 400, ..., 900
)

// scenario is one named benchmark plus the windows it publishes per
// iteration (0 for the mining microbenchmarks, which measure one snapshot).
type scenario struct {
	name    string
	windows int
	bench   func(b *testing.B)
}

// result is one scenario's measurement in the output JSON.
type result struct {
	Name          string  `json:"name"`
	Iterations    int     `json:"iterations"`
	NsPerOp       int64   `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	WindowsPerOp  int     `json:"windows_per_op,omitempty"`
	WindowsPerSec float64 `json:"windows_per_sec,omitempty"`
}

// report is the BENCH_pipeline.json document. CPUs and GOMAXPROCS record
// the measurement context: the -diff gate downgrades wall-clock regressions
// to warnings when they differ from the baseline's, and Warnings carries
// caveats about the run itself (e.g. worker tiers measured on one CPU).
type report struct {
	Schema     string   `json:"schema"`
	Go         string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUs       int      `json:"cpus"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Timestamp  string   `json:"timestamp"`
	Quick      bool     `json:"quick,omitempty"`
	Warnings   []string `json:"warnings,omitempty"`
	Scenarios  []result `json:"scenarios"`
}

func benchParams() core.Params {
	return core.Params{Epsilon: 0.1, Delta: 0.4, MinSupport: benchSupport, VulnSupport: benchVuln}
}

// benchEclat mines one materialized window with the batch Eclat miner.
func benchEclat(records []itemset.Itemset) func(b *testing.B) {
	return func(b *testing.B) {
		db := itemset.NewDatabase(records[:benchWindow])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mining.Eclat(db, benchSupport); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchMoment slides the incremental Moment miner across the corpus and
// snapshots the frequent itemsets at every publication point — the mine
// stage's actual workload.
func benchMoment(records []itemset.Itemset) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := moment.New(benchWindow, benchSupport)
			for pos, rec := range records {
				m.Push(rec)
				if pos+1 >= benchWindow && (pos+1-benchWindow)%benchPublishEvery == 0 {
					m.Frequent()
				}
			}
		}
	}
}

// benchBias times the hybrid scheme's bias optimization (λ = 0.4) at
// lookback γ over the FEC ladders of the corpus's publications — the
// per-layer γ sweep of Fig. 6. Every ladder runs the DP (there is no memo
// here), so allocs/op pins the order-preserving kernel's per-call
// allocations.
func benchBias(records []itemset.Itemset, gamma int) func(b *testing.B) {
	var ladders [][]fec.Class
	m := moment.New(benchWindow, benchSupport)
	for pos, rec := range records {
		m.Push(rec)
		if pos+1 >= benchWindow && (pos+1-benchWindow)%benchPublishEvery == 0 {
			ladders = append(ladders, fec.Partition(m.Frequent()))
		}
	}
	scheme := core.Hybrid{Lambda: 0.4, Order: core.OrderPreserving{Gamma: gamma}}
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, classes := range ladders {
				scheme.Biases(classes, benchParams())
			}
		}
	}
}

// benchPublish runs the full pipeline (mine, perturb, emit) at the given
// worker tier. fullEvery > 0 additionally checkpoints every window:
// fullEvery=1 writes a full snapshot per generation (the v1 durability tax),
// fullEvery=N>1 anchors a full every N generations and appends delta frames
// between them (the v2 chain format).
func benchPublish(records []itemset.Itemset, workers, fullEvery int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := pipeline.Config{
			WindowSize:   benchWindow,
			Params:       benchParams(),
			Scheme:       core.Hybrid{Lambda: 0.4},
			Seed:         11,
			PublishEvery: benchPublishEvery,
			Workers:      workers,
		}
		if fullEvery > 0 {
			dir, err := os.MkdirTemp("", "bench-ckpt-*")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			cfg.CheckpointDir = dir
			cfg.CheckpointEvery = 1
			cfg.CheckpointFullEvery = fullEvery
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := pipeline.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			published := 0
			if err := p.Run(records, func(pipeline.Window) error {
				published++
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			if published != benchWindows {
				b.Fatalf("published %d windows, want %d", published, benchWindows)
			}
		}
	}
}

func scenarios() []scenario {
	records := data.WebViewLike(benchSeed).Generate(benchRecords)
	s := []scenario{
		{name: "mine/eclat", bench: benchEclat(records)},
		{name: "mine/moment", windows: benchWindows, bench: benchMoment(records)},
	}
	for _, gamma := range []int{2, 3} {
		s = append(s, scenario{
			name:    fmt.Sprintf("bias/hybrid-gamma=%d", gamma),
			windows: benchWindows,
			bench:   benchBias(records, gamma),
		})
	}
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		s = append(s, scenario{
			name:    fmt.Sprintf("publish/workers=%d", workers),
			windows: benchWindows,
			bench:   benchPublish(records, workers, 0),
		})
	}
	s = append(s, scenario{
		name:    "publish/checkpointed",
		windows: benchWindows,
		bench:   benchPublish(records, 2, 1),
	},
		scenario{
			name:    "publish/checkpointed-delta",
			windows: benchWindows,
			bench:   benchPublish(records, 2, 16),
		})
	return s
}

// runSuite executes every scenario and assembles the report. timestamp may
// be empty (omitted from the JSON) when the caller has no clock to offer.
func runSuite(quick bool, timestamp string) report {
	rep := report{
		Schema:     benchSchema,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  timestamp,
		Quick:      quick,
	}
	if rep.GOMAXPROCS == 1 {
		rep.Warnings = append(rep.Warnings,
			"GOMAXPROCS=1: the workers=2/8 tiers ran on a single CPU, so their windows/sec measures scheduling overhead, not parallel speedup")
	}
	for _, sc := range scenarios() {
		fmt.Fprintf(os.Stderr, "bench: %s...\n", sc.name)
		if quick {
			// One iteration is enough for the alloc gate, but the
			// checkpointed scenarios feed the durability-tax ratio gate and
			// a single fsync-bound iteration is too noisy to gate on; ten
			// iterations still cost well under a second.
			bt := "1x"
			if strings.HasPrefix(sc.name, "publish/checkpointed") {
				bt = "10x"
			}
			if err := setBenchtime(bt); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
		}
		r := testing.Benchmark(sc.bench)
		res := result{
			Name:         sc.name,
			Iterations:   r.N,
			NsPerOp:      r.NsPerOp(),
			AllocsPerOp:  r.AllocsPerOp(),
			BytesPerOp:   r.AllocedBytesPerOp(),
			WindowsPerOp: sc.windows,
		}
		if sc.windows > 0 && r.NsPerOp() > 0 {
			res.WindowsPerSec = float64(sc.windows) / (float64(r.NsPerOp()) / 1e9)
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}
	return rep
}

// writeReport renders the report to path (or stdout for "-").
func writeReport(rep report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// setBenchtime configures testing.Benchmark's target via the test flags —
// the supported channel for tuning testing.Benchmark outside `go test`.
func setBenchtime(v string) error { return flag.Set("test.benchtime", v) }

func main() {
	testing.Init() // registers test.benchtime before our flags parse
	out := flag.String("out", "BENCH_pipeline.json", "output JSON path ('-' for stdout)")
	quick := flag.Bool("quick", false, "CI smoke mode: one iteration per scenario")
	diff := flag.String("diff", "",
		"baseline JSON to gate against: exit non-zero on a perf regression (see diff.go for the policy)")
	history := flag.String("history", "",
		"JSONL file to append this run's headline numbers to (see history.go; CI accumulates BENCH_history.jsonl)")
	flag.Parse()

	if *quick {
		if err := setBenchtime("1x"); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	rep := runSuite(*quick, time.Now().UTC().Format(time.RFC3339))
	// The fresh report is always written first — a failing gate still leaves
	// both JSONs on disk for the CI artifact upload.
	if err := writeReport(rep, *out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "bench: wrote %s (%d scenarios)\n", *out, len(rep.Scenarios))
	}
	if *history != "" {
		if err := appendHistory(*history, rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: appended to %s\n", *history)
	}
	if *diff != "" {
		ok, err := runDiff(*diff, rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: perf-regression gate FAILED against %s\n", *diff)
			os.Exit(1)
		}
	}
}
