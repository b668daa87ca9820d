package faultinject_test

// Recovery suite: drives the supervised pipeline through injected faults —
// transient source and sink failures, a mid-run sink panic, malformed input
// lines within the bad-record budget — and proves the run still publishes
// output byte-identical to a fault-free reference run, at every worker
// tier. Run it with -race; the CI workflow does.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/pipeline"
)

func recoveryConfig(workers int) pipeline.Config {
	return pipeline.Config{
		WindowSize:   400,
		Params:       core.Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5},
		Scheme:       core.Hybrid{Lambda: 0.4},
		Seed:         17,
		PublishEvery: 100,
		Workers:      workers,
	}
}

// fixtureText renders a 700-record synthetic stream in the transaction file
// format; every run in this suite parses the same text.
func fixtureText(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := data.WriteTransactions(&buf, data.WebViewLike(5).Generate(700), nil); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// corruptText injects a malformed line (NUL token) after every stride-th
// line, returning the dirty text and the injection count.
func corruptText(text string, stride int) (string, int) {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	var out []string
	injected := 0
	for i, l := range lines {
		out = append(out, l)
		if i%stride == stride-1 {
			out = append(out, "bad\x00token line")
			injected++
		}
	}
	return strings.Join(out, "\n") + "\n", injected
}

// renderWindows serializes published windows to the on-disk format, the
// byte-level identity the suite asserts on.
func renderWindows(t *testing.T, windows []pipeline.Window) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, w := range windows {
		fmt.Fprintf(&buf, "# window at position %d\n", w.Position)
		entries := make([]data.PublishedEntry, 0, w.Output.Len())
		for _, it := range w.Output.Items {
			entries = append(entries, data.PublishedEntry{Support: it.Support, Set: it.Set})
		}
		if err := data.WritePublished(&buf, entries, nil); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFaultInjectedRunIsByteIdenticalToFaultFree is the recovery suite's
// centerpiece: transient failures on every 7th source read and every 5th
// sink delivery, one injected sink panic, and malformed lines exactly
// filling the bad-record budget — and the published bytes must not move,
// at workers 1, 2 and 8.
func TestFaultInjectedRunIsByteIdenticalToFaultFree(t *testing.T) {
	text := fixtureText(t)
	dirty, injected := corruptText(text, 100)
	if injected == 0 {
		t.Fatal("fixture produced no malformed lines")
	}
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Fault-free reference over the clean text.
			cfg := recoveryConfig(workers)
			p, err := pipeline.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ref []pipeline.Window
			if _, err := p.RunContext(context.Background(),
				pipeline.ReaderSource(strings.NewReader(text), nil),
				func(w pipeline.Window) error { ref = append(ref, w); return nil }); err != nil {
				t.Fatal(err)
			}
			refBytes := renderWindows(t, ref)

			// Faulty run: dirty input behind a flaky source, into a flaky,
			// once-panicking sink.
			cfg.MaxBadRecords = injected
			cfg.EmitRetries = 4
			cfg.EmitBackoff = time.Millisecond
			p, err = pipeline.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := faultinject.NewSource(
				pipeline.ReaderSource(strings.NewReader(dirty), nil),
				faultinject.Plan{FailEvery: 7})
			var got []pipeline.Window
			sink := faultinject.NewSink(func(w pipeline.Window) error {
				got = append(got, w)
				return nil
			}, faultinject.Plan{FailEvery: 5, PanicOn: 3})
			rep, err := p.RunContext(context.Background(), src, sink.Emit)
			if err != nil {
				t.Fatalf("fault-injected run failed outright: %v", err)
			}

			if !bytes.Equal(refBytes, renderWindows(t, got)) {
				t.Fatalf("fault-injected output diverged from the fault-free run "+
					"(%d vs %d windows)", len(got), len(ref))
			}
			if rep.BadRecords != injected {
				t.Fatalf("BadRecords = %d, want %d", rep.BadRecords, injected)
			}
			if rep.Retries == 0 {
				t.Fatal("report shows no retries despite injected transient faults")
			}
			if rep.PanicsRecovered == 0 {
				t.Fatal("report shows no recovered panics despite the injected sink panic")
			}
			if rep.Published != len(ref) {
				t.Fatalf("Published = %d, want %d", rep.Published, len(ref))
			}
			if src.Failures() == 0 || sink.Failures() == 0 {
				t.Fatalf("fault plans never fired: source %d, sink %d",
					src.Failures(), sink.Failures())
			}
		})
	}
}

// TestPermanentSinkFaultFailsRun: a permanent injected fault is fatal even
// with retries budgeted, and it surfaces as the run error.
func TestPermanentSinkFaultFailsRun(t *testing.T) {
	cfg := recoveryConfig(2)
	cfg.EmitRetries = 5
	cfg.EmitBackoff = time.Millisecond
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := faultinject.NewSink(func(pipeline.Window) error { return nil },
		faultinject.Plan{FailEvery: 2, Permanent: true})
	rep, err := p.RunContext(context.Background(),
		pipeline.ReaderSource(strings.NewReader(fixtureText(t)), nil), sink.Emit)
	var fe *faultinject.FaultError
	if !errors.As(err, &fe) || !fe.Permanent {
		t.Fatalf("err = %v, want the permanent FaultError", err)
	}
	if rep.Retries != 0 {
		t.Fatalf("permanent fault was retried %d times", rep.Retries)
	}
}

// TestInjectedStallTripsWatchdog: a stalled sink delivery exceeds the
// per-window watchdog and fails the run instead of hanging it.
func TestInjectedStallTripsWatchdog(t *testing.T) {
	cfg := recoveryConfig(4)
	cfg.WindowTimeout = 50 * time.Millisecond
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := faultinject.NewSink(func(pipeline.Window) error { return nil },
		faultinject.Plan{StallOn: 1, Stall: 400 * time.Millisecond})
	start := time.Now()
	_, err = p.RunContext(context.Background(),
		pipeline.ReaderSource(strings.NewReader(fixtureText(t)), nil), sink.Emit)
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("err = %v, want a watchdog timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("watchdog took %v to unwind", elapsed)
	}
}

// TestCancellationUnderFaultsReturnsPromptlyNoLeak: canceling mid-run while
// faults are being injected still returns within the watchdog period and
// leaks no goroutines.
func TestCancellationUnderFaultsReturnsPromptlyNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := recoveryConfig(8)
	cfg.WindowTimeout = 2 * time.Second
	cfg.EmitRetries = 4
	cfg.EmitBackoff = time.Millisecond
	cfg.MaxBadRecords = -1
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dirty, _ := corruptText(fixtureText(t), 50)
	src := faultinject.NewSource(
		pipeline.ReaderSource(strings.NewReader(dirty), nil),
		faultinject.Plan{FailEvery: 9})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	_, err = p.RunContext(ctx, src, func(pipeline.Window) error {
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > cfg.WindowTimeout {
		t.Fatalf("cancellation took %v, want < %v", elapsed, cfg.WindowTimeout)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d before, %d after settle\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}
