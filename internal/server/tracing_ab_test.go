package server

// A/B identity for the observability surface itself: a server-hosted
// stream with the flight recorder and the telemetry registry fully on
// must publish windows byte-identical to the same stream with both off —
// and to a standalone reference run. This is the "observation-only"
// guarantee the tentpole instrumentation (ingest spans, latency
// histograms, end-to-end stamps) rides on. CI runs it race-enabled.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// runHosted hosts one stream, feeds it input, drains it, and returns its
// published windows (position → rendered body) plus the client for any
// follow-up requests.
func runHosted(t *testing.T, cfg StreamConfig, input string, reg *telemetry.Registry) (map[int]string, *tClient) {
	t.Helper()
	_, client := newTestServer(t, Options{Registry: reg})
	client.create(cfg)
	client.ingestAll(cfg.ID, input)
	client.closeStream(cfg.ID)
	client.waitState(cfg.ID, StateDone, 30*time.Second)
	return client.windows(cfg.ID), client
}

func TestServerTracingABIdentity(t *testing.T) {
	cfg := testConfig("ab-observe", 77)
	input := genInput(t, 77, 600)
	ref := referenceWindows(t, cfg, input)
	if len(ref) == 0 {
		t.Fatal("reference run published no windows")
	}

	// A: observability fully off — no registry, no flight recorder.
	cfgOff := cfg
	cfgOff.TraceWindows = 0
	winOff, _ := runHosted(t, cfgOff, input, nil)

	// B: observability fully on — registry plus a 64-window flight
	// recorder capturing ingest request spans and window spans.
	cfgOn := cfg
	cfgOn.TraceWindows = 64
	winOn, clientOn := runHosted(t, cfgOn, input, telemetry.NewRegistry())

	if len(winOff) != len(ref) || len(winOn) != len(ref) {
		t.Fatalf("window counts diverge: off=%d on=%d ref=%d", len(winOff), len(winOn), len(ref))
	}
	for pos, want := range ref {
		if winOff[pos] != want {
			t.Errorf("window %d: tracing-off body diverges from reference", pos)
		}
		if winOn[pos] != want {
			t.Errorf("window %d: tracing-on body diverges from reference", pos)
		}
	}

	// The traced stream's export must put an ingest request span and a
	// window span in the same Perfetto timeline: window roots on their
	// per-window tracks, ingest roots on the shared tid-0 "ingest" lane.
	resp, body := clientOn.do("GET", "/v1/streams/"+cfgOn.ID+"/trace", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("trace export: %d %s", resp.StatusCode, body)
	}
	var export struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  uint64 `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &export); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	var sawIngest, sawWindow bool
	ingestPid, windowPid := -1, -1
	for _, ev := range export.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Cat {
		case "ingest":
			sawIngest = true
			ingestPid = ev.Pid
			if ev.Tid != 0 {
				t.Errorf("ingest root %q on tid %d, want the shared tid-0 lane", ev.Name, ev.Tid)
			}
		case "window":
			sawWindow = true
			windowPid = ev.Pid
		}
	}
	if !sawIngest || !sawWindow {
		t.Fatalf("trace export missing root spans: ingest=%v window=%v (%d events)",
			sawIngest, sawWindow, len(export.TraceEvents))
	}
	if ingestPid != windowPid {
		t.Errorf("ingest (pid %d) and window (pid %d) roots are in different processes; "+
			"one timeline must show both", ingestPid, windowPid)
	}
}

// TestServerTraceSpanMetrics: with a registry attached, every hosted
// stream's spans feed butterfly_trace_span_seconds — a stream created
// without trace_windows through a ring-less tracer, a stream with it
// through its flight recorder. After close and drain, the scrape counts,
// across both durable streams, one ingest, parse, wal.append and wal.fsync
// span per accepted POST and one window, mine, bias.opt, emit and
// checkpoint.save span per published window.
func TestServerTraceSpanMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, client := newTestServer(t, Options{Registry: reg, DataDir: t.TempDir()})
	ringless, ringed := testConfig("spans-ringless", 7), testConfig("spans-ring", 8)
	ringed.TraceWindows = 64

	posts := 0
	deadline := time.Now().Add(60 * time.Second)
	for _, cfg := range []StreamConfig{ringless, ringed} {
		client.create(cfg)
		lines := strings.SplitAfter(strings.TrimRight(genInput(t, cfg.Seed, 600), "\n")+"\n", "\n")
		lines = lines[:len(lines)-1] // SplitAfter leaves an empty tail
		for off := 0; off < len(lines); {
			end := min(off+100, len(lines))
			resp, body := client.do("POST", fmt.Sprintf("/v1/streams/%s/records?offset=%d", cfg.ID, off),
				strings.NewReader(strings.Join(lines[off:end], "")))
			var ir ingestResponse
			if err := json.Unmarshal(body, &ir); err != nil {
				t.Fatalf("ingest %s: bad response %d %q", cfg.ID, resp.StatusCode, body)
			}
			if ir.Accepted > 0 {
				posts++
			}
			off += ir.Accepted
			if resp.StatusCode != http.StatusOK {
				time.Sleep(5 * time.Millisecond)
			}
			if time.Now().After(deadline) {
				t.Fatalf("ingest %s: stuck at line %d/%d", cfg.ID, off, len(lines))
			}
		}
	}
	t.Logf("%d accepted POSTs", posts)
	windows := 0
	for _, cfg := range []StreamConfig{ringless, ringed} {
		client.closeStream(cfg.ID)
		client.waitState(cfg.ID, StateDone, 30*time.Second)
		windows += len(client.windows(cfg.ID))
	}

	// The ring-less stream keeps no flight recorder: no ring, no exemplar
	// store, and its trace endpoint still answers 404.
	if c := srv.get(ringless.ID).tracer.Capacity(); c != 0 {
		t.Errorf("stream without trace_windows has a %d-window ring", c)
	}
	if resp, _ := client.do("GET", "/v1/streams/"+ringless.ID+"/trace", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of a stream without trace_windows: %d, want 404", resp.StatusCode)
	}

	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	count := func(span string) int {
		prefix := trace.MetricSpanSeconds + `_count{span="` + span + `"} `
		for _, line := range strings.Split(scrape.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				n, err := strconv.Atoi(rest)
				if err != nil {
					t.Fatalf("unparsable scrape line %q", line)
				}
				return n
			}
		}
		t.Fatalf("scrape has no %s series:\n%s", prefix, scrape.String())
		return 0
	}
	t.Logf("%d published windows", windows)
	if posts == 0 || windows == 0 {
		t.Fatalf("nothing to count: %d accepted POSTs, %d windows", posts, windows)
	}
	for _, span := range []string{"ingest", "parse", "wal.append", "wal.fsync"} {
		if got := count(span); got != posts {
			t.Errorf(`span="%s" count %d, want %d (one per accepted POST)`, span, got, posts)
		}
	}
	for _, span := range []string{"window", "mine", "bias.opt", "emit", "checkpoint.save"} {
		if got := count(span); got != windows {
			t.Errorf(`span="%s" count %d, want %d (one per published window)`, span, got, windows)
		}
	}
	if !strings.Contains(scrape.String(), trace.MetricSlowestWindow+" ") {
		t.Errorf("scrape has no %s gauge", trace.MetricSlowestWindow)
	}
}
