package pipeline

// Flight-recorder tests: the span wiring of every stage (source, mine,
// perturb, emit, checkpoint.save, the publisher's bias-opt and cache
// children), retry nesting under emit, the resume span after a restart, and
// the tracing half of the observation-only A/B contract (the telemetry half
// lives in metrics_test.go).

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/itemset"
	"repro/internal/trace"
)

// spanNames collects a record's child-span names, with multiplicity.
func spanNames(rec trace.Record) map[string]int {
	names := map[string]int{}
	for _, sp := range rec.Spans {
		names[sp.Name]++
	}
	return names
}

// spanAttr returns the named attribute of the first span with kind name.
func spanAttr(rec trace.Record, name, key string) (int64, bool) {
	for _, sp := range rec.Spans {
		if sp.Name != name {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Val, true
			}
		}
	}
	return 0, false
}

// TestTraceRecording runs a checkpointed multi-window stream and checks
// every published window committed a complete span ladder with the
// attributes the trace viewer keys on.
func TestTraceRecording(t *testing.T) {
	tr := trace.New(nil, 32)
	cfg := telemetryTestConfig(2, nil)
	cfg.Trace = tr
	cfg.Checkpoints = &checkpoint.Memory{}
	cfg.CheckpointEvery = 1
	records := data.WebViewLike(3).Generate(900)
	renderRun(t, cfg, records)

	recs := tr.Snapshot()
	if len(recs) != 7 { // positions 300, 400, ..., 900
		t.Fatalf("flight recorder holds %d windows, want 7", len(recs))
	}
	for i, rec := range recs {
		wantPos := uint64(300 + 100*i)
		if rec.Window != wantPos {
			t.Errorf("record %d is window %d, want stream position %d", i, rec.Window, wantPos)
		}
		names := spanNames(rec)
		for _, want := range []string{"source", "mine", "perturb", "emit", "checkpoint.save", "bias.opt", "cache"} {
			if names[want] != 1 {
				t.Errorf("window %d has %d %q spans, want 1 (spans: %v)", rec.Window, names[want], want, names)
			}
		}
		if names["retry"] != 0 {
			t.Errorf("window %d has retry spans on a clean run", rec.Window)
		}
		wantRecords := int64(300)
		if i > 0 {
			wantRecords = 100 // slide between publications
		}
		if got, ok := spanAttr(rec, "source", "records"); !ok || got != wantRecords {
			t.Errorf("window %d source span records=%d (ok=%v), want %d", rec.Window, got, ok, wantRecords)
		}
		if got, ok := spanAttr(rec, "mine", "itemsets"); !ok || got <= 0 {
			t.Errorf("window %d mine span itemsets=%d (ok=%v), want > 0", rec.Window, got, ok)
		}
		hits, _ := spanAttr(rec, "cache", "cache_hits")
		misses, ok := spanAttr(rec, "cache", "cache_misses")
		if !ok || hits+misses == 0 {
			t.Errorf("window %d cache span traffic hits=%d misses=%d, want > 0", rec.Window, hits, misses)
		}
		if rec.Dropped != 0 {
			t.Errorf("window %d dropped %d spans", rec.Window, rec.Dropped)
		}
	}
}

// TestTraceRetrySpans drives transient emit failures and checks the retry
// spans nest under the affected window's emit span with attempt numbers.
func TestTraceRetrySpans(t *testing.T) {
	tr := trace.New(nil, 32)
	cfg := telemetryTestConfig(1, nil)
	cfg.Trace = tr
	cfg.EmitRetries = 3
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	records := data.WebViewLike(3).Generate(400)
	emitFails := 2
	firstEmit := true
	err = p.Run(records, func(w Window) error {
		if firstEmit && emitFails > 0 {
			emitFails--
			return Transient(fmt.Errorf("synthetic sink hiccup"))
		}
		firstEmit = false
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := tr.Snapshot()
	if len(recs) != 2 { // positions 300 and 400
		t.Fatalf("flight recorder holds %d windows, want 2", len(recs))
	}
	if got := spanNames(recs[0])["retry"]; got != 2 {
		t.Errorf("retried window has %d retry spans, want 2", got)
	}
	if att, ok := spanAttr(recs[0], "retry", "attempt"); !ok || att != 1 {
		t.Errorf("first retry span attempt=%d (ok=%v), want 1", att, ok)
	}
	if retries, ok := spanAttr(recs[0], "emit", "retries"); !ok || retries != 2 {
		t.Errorf("emit span retries=%d (ok=%v), want 2", retries, ok)
	}
	if got := spanNames(recs[1])["retry"]; got != 0 {
		t.Errorf("clean window has %d retry spans, want 0", got)
	}
	// Retry spans nest under the emit span by time containment.
	var emitSpan, retrySpan *trace.Span
	for i := range recs[0].Spans {
		switch recs[0].Spans[i].Name {
		case "emit":
			emitSpan = &recs[0].Spans[i]
		case "retry":
			if retrySpan == nil {
				retrySpan = &recs[0].Spans[i]
			}
		}
	}
	if retrySpan.Start < emitSpan.Start ||
		retrySpan.Start+retrySpan.Dur > emitSpan.Start+emitSpan.Dur {
		t.Errorf("retry span [%v +%v] not contained in emit span [%v +%v]",
			retrySpan.Start, retrySpan.Dur, emitSpan.Start, emitSpan.Dur)
	}
}

// TestTraceResumeSpan restarts a run from its checkpoint and checks the
// first window published after the restart carries a resume span covering
// the restore.
func TestTraceResumeSpan(t *testing.T) {
	store, err := checkpoint.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	records := data.WebViewLike(3).Generate(900)
	cfg := telemetryTestConfig(2, nil)
	cfg.Checkpoints = store
	cfg.CheckpointEvery = 1

	// First run: stop (via a fatal emit error) after 3 windows.
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	published := 0
	_, _ = p.RunContext(context.Background(), SliceSource(records), func(w Window) error {
		published++
		if published == 3 {
			return fmt.Errorf("synthetic crash")
		}
		return nil
	})

	snap, _, err := store.Latest()
	if err != nil || snap == nil {
		t.Fatalf("no checkpoint to resume from: %v", err)
	}
	tr := trace.New(nil, 32)
	cfg.Trace = tr
	cfg.Resume = snap
	p, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunContext(context.Background(), SliceSource(records[snap.Records:]), func(Window) error { return nil }); err != nil {
		t.Fatal(err)
	}
	recs := tr.Snapshot()
	if len(recs) == 0 {
		t.Fatal("resumed run committed no trace windows")
	}
	if got := spanNames(recs[0])["resume"]; got != 1 {
		t.Errorf("first resumed window has %d resume spans, want 1 (spans: %v)", got, spanNames(recs[0]))
	}
	for _, rec := range recs[1:] {
		if got := spanNames(rec)["resume"]; got != 0 {
			t.Errorf("window %d after the first carries a resume span", rec.Window)
		}
	}
}

// TestTraceFailedWindowCommitted: a window whose emission exhausts the
// retry budget still lands in the flight recorder, so the abort-path trace
// dump shows the failure.
func TestTraceFailedWindowCommitted(t *testing.T) {
	tr := trace.New(nil, 8)
	cfg := telemetryTestConfig(1, nil)
	cfg.Trace = tr
	cfg.EmitRetries = 1
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	records := data.WebViewLike(3).Generate(400)
	err = p.Run(records, func(w Window) error {
		return Transient(fmt.Errorf("sink down"))
	})
	if err == nil {
		t.Fatal("run succeeded despite a permanently failing sink")
	}
	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("flight recorder holds %d windows, want the 1 failed window", len(recs))
	}
	if got := spanNames(recs[0])["retry"]; got != 2 { // initial attempt + 1 retry, both failed
		t.Errorf("failed window has %d retry spans, want 2", got)
	}
}

// TestTracingABIdentity is the tracing half of the observation-only gate:
// at workers 1, 2 and 8, a traced run publishes output byte-identical to an
// untraced run. CI executes this race-enabled alongside the telemetry half.
func TestTracingABIdentity(t *testing.T) {
	records := data.WebViewLike(3).Generate(900)
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			off := renderRun(t, telemetryTestConfig(workers, nil), records)
			cfg := telemetryTestConfig(workers, nil)
			cfg.Trace = trace.New(nil, trace.DefaultWindows)
			on := renderRun(t, cfg, records)
			if off != on {
				t.Errorf("published output differs with tracing enabled (workers=%d):\n--- off ---\n%s--- on ---\n%s",
					workers, off, on)
			}
			if got := len(cfg.Trace.Snapshot()); got != 7 {
				t.Errorf("traced run committed %d windows, want 7", got)
			}
		})
	}
}

// TestTraceSourceSpanCoversFaults: retried source reads and skipped bad
// records count into the window's source span rather than vanishing.
func TestTraceSourceSpanCoversFaults(t *testing.T) {
	tr := trace.New(nil, 8)
	cfg := telemetryTestConfig(1, nil)
	cfg.Trace = tr
	cfg.MaxBadRecords = -1
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	records := data.WebViewLike(3).Generate(400)
	i := 0
	badAt := map[int]bool{50: true}
	src := funcSource(func() (itemset.Itemset, error) {
		if badAt[i] {
			delete(badAt, i)
			return itemset.Itemset{}, &data.ParseError{Line: i, Err: fmt.Errorf("synthetic")}
		}
		if i >= len(records) {
			return itemset.Itemset{}, io.EOF
		}
		rec := records[i]
		i++
		time.Sleep(time.Microsecond)
		return rec, nil
	})
	if _, err := p.RunContext(context.Background(), src, func(Window) error { return nil }); err != nil {
		t.Fatal(err)
	}
	recs := tr.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("flight recorder holds %d windows, want 2", len(recs))
	}
	if d := recs[0].Spans[0].Dur; recs[0].Spans[0].Name != "source" || d <= 0 {
		t.Errorf("first span is %q with duration %v, want a positive source span", recs[0].Spans[0].Name, d)
	}
	// The bad record was skipped during the first window's ingest, so the
	// root carries the bad-record attribute.
	var bad int64
	for _, a := range recs[0].Attrs {
		if a.Key == "bad_records" {
			bad = a.Val
		}
	}
	if bad != 1 {
		t.Errorf("first window bad_records attr = %d, want 1", bad)
	}
}
