package trace

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTracer builds a deterministic two-window trace on a fake clock:
// window 7 with the full stage ladder plus a retry, window 8 overflowing
// its span table so the dropped counter renders.
func goldenTracer() *Tracer {
	tr, clock := newTestTracer(nil, 8, 0)
	at := func(ms int64) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }

	w := tr.StartWindow()
	w.SetID(7)
	w.Attr(AttrWindow, 7)
	w.Attr(AttrRecords, 300)
	w.Add(KindSource, at(0), 2*time.Millisecond).Attr(AttrRecords, 300)
	w.Add(KindMine, at(2), 10*time.Millisecond).Attr(AttrItemsets, 41)
	sp := w.Add(KindPerturb, at(12), 5*time.Millisecond)
	sp.Attr(AttrCacheHits, 12)
	sp.Attr(AttrCacheMisses, 29)
	w.Add(KindBiasOpt, at(12), 3*time.Millisecond)
	w.Add(KindEmit, at(17), 4*time.Millisecond).Attr(AttrRetries, 1)
	w.Add(KindRetry, at(17), time.Millisecond).Attr(AttrAttempt, 1)
	w.Add(KindCheckpointSave, at(21), 2*time.Millisecond)
	clock.t = at(23)
	tr.Commit(w)

	w = tr.StartWindow()
	w.SetID(8)
	w.Attr(AttrWindow, 8)
	for i := 0; i < MaxSpans+2; i++ {
		w.Add(KindRetry, at(30+int64(i)), time.Millisecond)
	}
	clock.t = at(60)
	tr.Commit(w)
	return tr
}

// TestChromeGolden pins the exact Chrome trace-event JSON the encoder
// emits. Regenerate with `go test ./internal/trace/ -run ChromeGolden -update`.
func TestChromeGolden(t *testing.T) {
	var buf strings.Builder
	if err := goldenTracer().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if buf.String() != string(want) {
		t.Errorf("Chrome trace JSON drifted from golden:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestChromeNilTracer: a nil tracer must still write a valid, loadable
// (empty) trace — the -trace-out flush path cannot crash a disabled run.
func TestChromeNilTracer(t *testing.T) {
	var tr *Tracer
	var buf strings.Builder
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Errorf("nil tracer wrote %q, want a valid empty trace object", buf.String())
	}
}

// TestChromeWriteFile round-trips the snapshot through -trace-out's file
// writer.
func TestChromeWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := goldenTracer().WriteChromeFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"displayTimeUnit": "ms"`, `"window 7"`, `"checkpoint.save"`, `"dropped_spans": 2`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("trace file missing %s", want)
		}
	}
}

// TestChromeHandler serves the same JSON over HTTP — the
// /debug/trace/events endpoint contract.
func TestChromeHandler(t *testing.T) {
	srv := httptest.NewServer(goldenTracer().Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	var buf strings.Builder
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph": "X"`) || !strings.Contains(buf.String(), `"process_name"`) {
		t.Errorf("endpoint served %q, want complete trace events", buf.String())
	}
}
