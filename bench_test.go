// Package repro's top-level benchmarks regenerate each evaluation figure of
// the Butterfly paper at reduced scale — one benchmark per figure — plus an
// end-to-end pipeline benchmark. Full-scale regeneration (100 windows,
// H=2000/5000, both datasets) is the job of cmd/experiments; these
// benchmarks exist so `go test -bench` exercises every experiment path and
// reports its cost.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiment"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// benchOpts shrinks a figure run to benchmark scale: one dataset, few
// windows, wide stride. The sweep structure (all settings, all variants) is
// preserved — only the per-setting window count shrinks.
func benchOpts() experiment.FigureOptions {
	return experiment.FigureOptions{
		WindowSize:    500,
		Windows:       4,
		Stride:        25,
		Seed:          1,
		Gamma:         2,
		DatasetFilter: "WebView1",
	}
}

func runFigure(b *testing.B, n int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		panels, err := experiment.Figure(n, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) == 0 {
			b.Fatal("no panels")
		}
	}
}

// BenchmarkFig4Privacy regenerates the privacy/precision experiment
// (avg_prig vs δ, avg_pred vs ε; Fig. 4).
func BenchmarkFig4Privacy(b *testing.B) { runFigure(b, 4) }

// BenchmarkFig5OrderRatio regenerates the order/ratio preservation
// experiment (avg_ropp and avg_rrpp vs ε/δ; Fig. 5).
func BenchmarkFig5OrderRatio(b *testing.B) { runFigure(b, 5) }

// BenchmarkFig6Gamma regenerates the γ-tuning experiment (avg_ropp vs γ;
// Fig. 6).
func BenchmarkFig6Gamma(b *testing.B) { runFigure(b, 6) }

// BenchmarkFig7Hybrid regenerates the λ-tradeoff experiment (ropp/rrpp
// frontier; Fig. 7).
func BenchmarkFig7Hybrid(b *testing.B) { runFigure(b, 7) }

// BenchmarkFig8Overhead regenerates the efficiency experiment (per-window
// mining/Basic/Opt time vs C; Fig. 8).
func BenchmarkFig8Overhead(b *testing.B) {
	opts := benchOpts()
	opts.WindowSize = 1000 // Fig8 would otherwise bump the default to 5000
	for i := 0; i < b.N; i++ {
		panels, err := experiment.Fig8(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) == 0 {
			b.Fatal("no panels")
		}
	}
}

// BenchmarkPipelinePush measures the steady-state per-record cost of the
// full stream pipeline (incremental mining + window bookkeeping).
func BenchmarkPipelinePush(b *testing.B) {
	stream, err := core.NewStream(core.StreamConfig{
		WindowSize: 2000,
		Params:     core.Params{Epsilon: 0.016, Delta: 0.4, MinSupport: 25, VulnSupport: 5},
		Scheme:     core.Hybrid{Lambda: 0.4},
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := data.WebViewLike(1)
	for i := 0; i < 2000; i++ {
		stream.Push(gen.Next())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Push(gen.Next())
	}
}

// benchWindow mines one dense synthetic window for the mining and
// publication micro-benchmarks.
func benchWindow(b *testing.B) (*itemset.Database, *mining.Result) {
	b.Helper()
	db := itemset.NewDatabase(data.WebViewLike(1).Generate(2000))
	res, err := mining.Eclat(db, 25)
	if err != nil {
		b.Fatal(err)
	}
	return db, res
}

// BenchmarkEclatSerial measures single-threaded Eclat over one window.
func BenchmarkEclatSerial(b *testing.B) {
	db, _ := benchWindow(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.Eclat(db, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPublish measures repeated sanitized releases of one mined window at
// the given perturbation parallelism. The republication cache is disabled so
// every iteration pays the full perturbation cost.
func benchPublish(b *testing.B, workers int) {
	_, res := benchWindow(b)
	pub, err := core.NewPublisher(
		core.Params{Epsilon: 0.016, Delta: 0.4, MinSupport: 25, VulnSupport: 5},
		core.Hybrid{Lambda: 0.4}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	pub.SetWorkers(workers)
	pub.SetRepublicationCache(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.Publish(res, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishWorkers1 measures the chunked perturbation worked by
// Publish's own goroutine alone, the default and the paper's setting.
func BenchmarkPublishWorkers1(b *testing.B) { benchPublish(b, 1) }

// BenchmarkPublishChunked8 measures the chunked-RNG perturbation path with
// an 8-worker pool.
func BenchmarkPublishChunked8(b *testing.B) { benchPublish(b, 8) }

// benchEndToEnd streams 3000 synthetic records through the full publication
// pipeline (window 1000, publishing every 200 slides) at the given
// parallelism.
func benchEndToEnd(b *testing.B, workers int) {
	records := data.WebViewLike(1).Generate(3000)
	p, err := pipeline.New(pipeline.Config{
		WindowSize:   1000,
		Params:       core.Params{Epsilon: 0.016, Delta: 0.4, MinSupport: 25, VulnSupport: 5},
		Scheme:       core.Hybrid{Lambda: 0.4},
		Seed:         1,
		PublishEvery: 200,
		Workers:      workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		windows := 0
		if err := p.Run(records, func(pipeline.Window) error { windows++; return nil }); err != nil {
			b.Fatal(err)
		}
		if windows == 0 {
			b.Fatal("no windows published")
		}
	}
}

// BenchmarkEndToEndSerial measures the full mine→perturb→emit loop with one
// perturbation worker.
func BenchmarkEndToEndSerial(b *testing.B) { benchEndToEnd(b, 1) }

// BenchmarkEndToEndWorkers8 measures the same loop with 8 perturbation
// workers.
func BenchmarkEndToEndWorkers8(b *testing.B) { benchEndToEnd(b, 8) }

// BenchmarkPipelinePublish measures one sanitized release of a full window
// (FEC partitioning, bias optimization, perturbation).
func BenchmarkPipelinePublish(b *testing.B) {
	stream, err := core.NewStream(core.StreamConfig{
		WindowSize: 2000,
		Params:     core.Params{Epsilon: 0.016, Delta: 0.4, MinSupport: 25, VulnSupport: 5},
		Scheme:     core.Hybrid{Lambda: 0.4},
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := data.WebViewLike(1)
	for i := 0; i < 2200; i++ {
		stream.Push(gen.Next())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.Publish(); err != nil {
			b.Fatal(err)
		}
	}
}
