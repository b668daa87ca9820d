package pipeline_test

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/itemset"
	"repro/internal/pipeline"
)

func benchRun(b *testing.B, workers int, records []itemset.Itemset) {
	b.Helper()
	cfg := testConfig(workers)
	p, err := pipeline.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		windows := 0
		if err := p.Run(records, func(pipeline.Window) error {
			windows++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if windows == 0 {
			b.Fatal("no windows published")
		}
	}
}

// BenchmarkRunSerial measures the pipeline end to end with one perturbation
// worker, the perturb stage's own goroutine.
func BenchmarkRunSerial(b *testing.B) {
	records := testRecords(b, 1600)
	benchRun(b, 1, records)
}

// BenchmarkRunStaged2 measures the staged pipeline with 2 workers.
func BenchmarkRunStaged2(b *testing.B) {
	records := testRecords(b, 1600)
	benchRun(b, 2, records)
}

// BenchmarkRunStaged8 measures the staged pipeline with 8 workers.
func BenchmarkRunStaged8(b *testing.B) {
	records := testRecords(b, 1600)
	benchRun(b, 8, records)
}

func benchCheckpointed(b *testing.B, fullEvery int) {
	b.Helper()
	records := testRecords(b, 1600)
	store, err := checkpoint.NewStore(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := testConfig(2)
	cfg.Checkpoints = store
	cfg.CheckpointEvery = 1
	cfg.CheckpointFullEvery = fullEvery
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pipeline.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Run(records, func(pipeline.Window) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCheckpointed measures the durability tax at its steepest:
// a full snapshot fsynced after every published window.
func BenchmarkRunCheckpointed(b *testing.B) { benchCheckpointed(b, 1) }

// BenchmarkRunDeltaCheckpointed measures the same interval with delta
// chains: one anchor full then CRC-framed delta appends (DESIGN.md §2.15).
func BenchmarkRunDeltaCheckpointed(b *testing.B) { benchCheckpointed(b, 16) }
