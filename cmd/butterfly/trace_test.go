package main

// End-to-end tracing tests: the /debug/trace/events endpoint on a LIVE run,
// the -trace-out flush on the clean and aborted exit paths, and flag
// validation for the tracer knobs.

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// chromeTraceDoc mirrors the Chrome trace-event envelope for decoding in
// assertions.
type chromeTraceDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// decodeTrace parses Chrome trace-event JSON, failing the test on anything
// malformed — the format Perfetto loads is the acceptance criterion.
func decodeTrace(t *testing.T, data string) chromeTraceDoc {
	t.Helper()
	var doc chromeTraceDoc
	if err := json.Unmarshal([]byte(data), &doc); err != nil {
		t.Fatalf("invalid Chrome trace-event JSON: %v\n%s", err, data)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	return doc
}

// stageNames collects the stage-category event names of a trace, with
// multiplicity.
func stageNames(doc chromeTraceDoc) map[string]int {
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "stage" {
			names[ev.Name]++
		}
	}
	return names
}

// TestRunTraceLiveEndpoint scrapes /debug/trace/events from a live CLI run
// held open on a stdin pipe — the `curl` of the acceptance criteria — and
// checks the payload is complete, valid Chrome trace-event JSON.
func TestRunTraceLiveEndpoint(t *testing.T) {
	addrCh := make(chan string, 1)
	telemetryStarted = func(addr string) { addrCh <- addr }
	defer func() { telemetryStarted = nil }()

	pr, pw := io.Pipe()
	var out bytes.Buffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-input", "-", "-window", "6", "-support", "2", "-vuln", "1",
			"-epsilon", "0.5", "-delta", "0.3", "-scheme", "basic",
			"-publish-every", "3",
			"-telemetry-addr", "127.0.0.1:0",
		}, pr, &out)
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-errCh:
		t.Fatalf("run exited before telemetry came up: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("telemetry server never started")
	}

	if _, err := io.WriteString(pw, strings.Repeat("a b c\na b\nb c\n", 5)); err != nil {
		t.Fatal(err)
	}

	// Poll the trace endpoint until a committed window shows up. The
	// process and ingest-track metadata events are always there, so count
	// window roots, not events.
	deadline := time.Now().Add(10 * time.Second)
	var doc chromeTraceDoc
	for {
		doc = decodeTrace(t, scrape(t, addr, "/debug/trace/events"))
		committed := false
		for _, ev := range doc.TraceEvents {
			committed = committed || ev.Cat == "window"
		}
		if committed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/debug/trace/events never showed a committed window")
		}
		time.Sleep(10 * time.Millisecond)
	}
	names := stageNames(doc)
	for _, want := range []string{"source", "mine", "perturb", "emit", "bias.opt", "cache"} {
		if names[want] == 0 {
			t.Errorf("live trace has no %q stage span (stages: %v)", want, names)
		}
	}
	var window6 bool
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "window" && ev.Tid == 6 {
			window6 = true
			if ev.Args["window"] != float64(6) {
				t.Errorf("window root args = %v, want window=6", ev.Args)
			}
		}
	}
	if !window6 {
		t.Errorf("live trace missing the first window's root span (position 6)")
	}

	// The flight-recorder metrics registered alongside: the slowest-window
	// gauge and the span histograms are on /metrics.
	metrics := scrape(t, addr, "/metrics")
	for _, want := range []string{
		"# TYPE butterfly_trace_slowest_window_seconds gauge",
		`butterfly_trace_span_seconds_bucket{span="window",le="+Inf"}`,
		`butterfly_trace_span_seconds_bucket{span="perturb",le="+Inf"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	pw.Close()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not finish after stdin closed")
	}
}

// TestRunTraceOutCleanExit: a clean run writes -trace-out at exit and
// reports the path in the summary.
func TestRunTraceOutCleanExit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	err := run([]string{
		"-gen", "webview", "-n", "400", "-window", "300", "-support", "10",
		"-vuln", "5", "-epsilon", "0.1", "-delta", "0.4",
		"-publish-every", "100", "-workers", "2",
		"-trace-out", path,
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "# trace: "+path) {
		t.Errorf("summary does not report the trace path:\n%s", out.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	doc := decodeTrace(t, string(b))
	var windows int
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "window" {
			windows++
		}
	}
	if windows != 2 { // positions 300 and 400
		t.Errorf("trace file holds %d windows, want 2", windows)
	}
	names := stageNames(doc)
	for _, want := range []string{"source", "mine", "perturb", "emit"} {
		if names[want] != 2 {
			t.Errorf("trace file has %d %q spans, want 2 (stages: %v)", names[want], want, names)
		}
	}
}

// TestRunTraceOutAbortExit pins the small-fix satellite: an ABORTED run
// still flushes -trace-out — including the window whose emission failed —
// and the aborted summary names the path. The abort is a deterministic
// emit-side failure: the first window's audit dump collides with a
// directory planted at its path.
func TestRunTraceOutAbortExit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	dumpDir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dumpDir, "window-6.txt"), 0o755); err != nil {
		t.Fatal(err)
	}
	in := strings.Repeat("a b c\na b\nb c\n", 4)
	var out bytes.Buffer
	err := run([]string{
		"-input", "-", "-window", "6", "-support", "2", "-vuln", "1",
		"-epsilon", "0.5", "-delta", "0.3", "-scheme", "basic",
		"-publish-every", "3",
		"-dump-dir", dumpDir,
		"-trace-out", path,
	}, strings.NewReader(in), &out)
	if err == nil {
		t.Fatalf("run survived an unwritable window dump:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "# aborted") {
		t.Errorf("aborted summary header missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "# trace: "+path) {
		t.Errorf("aborted summary does not report the trace path:\n%s", out.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("aborted run did not flush the trace file: %v", err)
	}
	doc := decodeTrace(t, string(b))
	var windows int
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "window" {
			windows++
		}
	}
	if windows == 0 {
		t.Errorf("aborted trace dump holds no windows; the pre-abort windows were dropped:\n%s", b)
	}
}

// TestRunTraceFlagValidation: the tracer knobs reject nonsense up front.
func TestRunTraceFlagValidation(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-gen", "webview", "-n", "10", "-window", "5",
		"-trace-windows", "0",
	}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "-trace-windows") {
		t.Errorf("zero -trace-windows accepted (err: %v)", err)
	}
}
