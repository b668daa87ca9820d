package pipeline_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/itemset"
	"repro/internal/pipeline"
)

func testConfig(workers int) pipeline.Config {
	return pipeline.Config{
		WindowSize:   400,
		Params:       core.Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5},
		Scheme:       core.Hybrid{Lambda: 0.4},
		Seed:         17,
		PublishEvery: 100,
		Workers:      workers,
	}
}

func testRecords(t testing.TB, n int) []itemset.Itemset {
	t.Helper()
	return data.WebViewLike(5).Generate(n)
}

func collect(t *testing.T, cfg pipeline.Config, records []itemset.Itemset) []pipeline.Window {
	t.Helper()
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []pipeline.Window
	if err := p.Run(records, func(w pipeline.Window) error {
		out = append(out, w)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameWindows(t *testing.T, label string, a, b []pipeline.Window) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d windows", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Position != b[i].Position {
			t.Fatalf("%s: window %d at position %d vs %d", label, i, a[i].Position, b[i].Position)
		}
		x, y := a[i].Output, b[i].Output
		if x.Len() != y.Len() {
			t.Fatalf("%s: window %d has %d vs %d itemsets", label, i, x.Len(), y.Len())
		}
		for j := range x.Items {
			if !x.Items[j].Set.Equal(y.Items[j].Set) || x.Items[j].Support != y.Items[j].Support {
				t.Fatalf("%s: window %d item %d differs: %v/%d vs %v/%d", label, i, j,
					x.Items[j].Set, x.Items[j].Support, y.Items[j].Set, y.Items[j].Support)
			}
		}
	}
}

// legacyDrive replicates the pre-pipeline publication loop verbatim on a
// core.Stream whose publisher runs with the given worker setting. It is the
// reference the pipeline paths are pinned against.
func legacyDrive(t *testing.T, cfg pipeline.Config, pubWorkers int, records []itemset.Itemset) []pipeline.Window {
	t.Helper()
	stream, err := core.NewStream(core.StreamConfig{
		WindowSize: cfg.WindowSize,
		Params:     cfg.Params,
		Scheme:     cfg.Scheme,
		Seed:       cfg.Seed,
		ClosedOnly: cfg.ClosedOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream.Publisher().SetWorkers(pubWorkers)
	var out []pipeline.Window
	sinceFull := 0
	for i, rec := range records {
		stream.Push(rec)
		if !stream.Ready() {
			continue
		}
		sinceFull++
		atEnd := i == len(records)-1
		due := cfg.PublishEvery > 0 && (sinceFull-1)%cfg.PublishEvery == 0
		if !due && !atEnd {
			continue
		}
		o, err := stream.Publish()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pipeline.Window{Position: i + 1, Output: o})
	}
	return out
}

// TestSerialPathMatchesLegacyDrive pins the Workers=1 pipeline to the
// historical inline loop: same windows, same sanitized supports, same
// order.
func TestSerialPathMatchesLegacyDrive(t *testing.T) {
	records := testRecords(t, 900)
	cfg := testConfig(1)
	sameWindows(t, "workers=1 vs legacy loop",
		legacyDrive(t, cfg, 1, records), collect(t, cfg, records))
}

// TestStagedMatchesSequentialChunkedDrive pins the staged concurrent path
// to a single-goroutine drive of the same chunked publisher: overlapping
// the stages must not change a single published value.
func TestStagedMatchesSequentialChunkedDrive(t *testing.T) {
	records := testRecords(t, 900)
	cfg := testConfig(4)
	sameWindows(t, "staged vs sequential chunked",
		legacyDrive(t, cfg, 2, records), collect(t, cfg, records))
}

// TestStagedWorkerCountInvariance requires identical output from every
// worker count (the chunked-RNG determinism contract end to end).
func TestStagedWorkerCountInvariance(t *testing.T) {
	records := testRecords(t, 900)
	ref := collect(t, testConfig(2), records)
	for _, workers := range []int{1, 3, 4, 8} {
		sameWindows(t, "staged worker invariance", ref, collect(t, testConfig(workers), records))
	}
}

// TestRawModeIdenticalAcrossAllWorkerCounts: audit mode never touches the
// RNG, so raw output must be identical across every worker count.
func TestRawModeIdenticalAcrossAllWorkerCounts(t *testing.T) {
	records := testRecords(t, 900)
	mk := func(workers int) pipeline.Config {
		cfg := testConfig(workers)
		cfg.Raw = true
		return cfg
	}
	ref := collect(t, mk(1), records)
	if len(ref) == 0 {
		t.Fatal("no raw windows published")
	}
	for _, workers := range []int{2, 6} {
		sameWindows(t, "raw invariance", ref, collect(t, mk(workers), records))
	}
}

// TestPublishCadence checks the publication positions for both paths:
// window H=400 over 900 records publishing every 100 slides gives releases
// at positions 400, 500, ..., 900.
func TestPublishCadence(t *testing.T) {
	records := testRecords(t, 900)
	want := []int{400, 500, 600, 700, 800, 900}
	for _, workers := range []int{1, 4} {
		got := collect(t, testConfig(workers), records)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d windows, want %d", workers, len(got), len(want))
		}
		for i, w := range got {
			if w.Position != want[i] {
				t.Errorf("workers=%d: window %d at position %d, want %d", workers, i, w.Position, want[i])
			}
		}
	}
	// PublishEvery=0 publishes exactly once, at the end.
	cfg := testConfig(4)
	cfg.PublishEvery = 0
	got := collect(t, cfg, records)
	if len(got) != 1 || got[0].Position != 900 {
		t.Fatalf("publishEvery=0: got %d windows (first position %d), want 1 at 900", len(got), got[0].Position)
	}
}

// TestConfigValidation exercises New's rejection paths.
func TestConfigValidation(t *testing.T) {
	bad := []pipeline.Config{
		{WindowSize: 0, Params: core.Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5}},
		func() pipeline.Config { c := testConfig(1); c.Buffer = -1; return c }(),
		func() pipeline.Config { c := testConfig(1); c.PublishEvery = -2; return c }(),
		func() pipeline.Config { c := testConfig(1); c.Params.Epsilon = -1; return c }(),
	}
	for i, cfg := range bad {
		if _, err := pipeline.New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestRunErrors covers the runtime failure paths: short streams and emit
// errors (which must cancel the upstream stages and come back verbatim).
func TestRunErrors(t *testing.T) {
	p, err := pipeline.New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(testRecords(t, 100), func(pipeline.Window) error { return nil }); err == nil {
		t.Error("short stream accepted")
	}

	sentinel := errors.New("downstream full")
	for _, workers := range []int{1, 4} {
		p, err := pipeline.New(testConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		err = p.Run(testRecords(t, 900), func(pipeline.Window) error {
			calls++
			if calls == 2 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: emit error not propagated: %v", workers, err)
		}
	}
}

// TestRunIsRepeatable: each Run builds fresh miner/publisher state, so two
// runs of one Pipeline over the same records are identical.
func TestRunIsRepeatable(t *testing.T) {
	records := testRecords(t, 900)
	cfg := testConfig(4)
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []pipeline.Window {
		var out []pipeline.Window
		if err := p.Run(records, func(w pipeline.Window) error {
			out = append(out, w)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	sameWindows(t, "repeat runs", run(), run())
}
