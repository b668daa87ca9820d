package server

// Control-plane reads taken while a stream is live: the status JSON and the
// per-stream pull gauges must describe the stream that holds the id now,
// without racing the ingest path.

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/wal"
)

// TestStatusConcurrentWithIngest polls a stream's status while 3,000 lines
// (30 of them malformed) are ingested. Under -race the poll must not race
// the ingest handlers. Every poll must split accepted_lines exactly into
// records_accepted + bad_records, and neither total may shrink; the last
// status counts every line.
func TestStatusConcurrentWithIngest(t *testing.T) {
	cfg := badBudget(testConfig("poll", 5))
	input := withBadLines(genInput(t, 5, 3000), 100)
	srv, c := newTestServer(t, Options{})
	c.create(cfg)

	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		var prev StreamStatus
		for n := 0; ; n++ {
			select {
			case <-stop:
				if n == 0 {
					polled <- fmt.Errorf("no status polled during ingest")
				} else {
					polled <- nil
				}
				return
			default:
			}
			st, err := srv.Status(cfg.ID)
			switch {
			case err != nil:
				polled <- err
				return
			case st.RecordsAccepted+st.BadRecords != st.AcceptedLines:
				polled <- fmt.Errorf("status counts %d records + %d bad of %d lines",
					st.RecordsAccepted, st.BadRecords, st.AcceptedLines)
				return
			case st.AcceptedLines < prev.AcceptedLines || st.RecordsAccepted < prev.RecordsAccepted:
				polled <- fmt.Errorf("status went back from %d lines / %d records to %d / %d",
					prev.AcceptedLines, prev.RecordsAccepted, st.AcceptedLines, st.RecordsAccepted)
				return
			}
			prev = st
		}
	}()
	c.ingestAll(cfg.ID, input)
	close(stop)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	st, err := srv.Status(cfg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.AcceptedLines != 3030 || st.RecordsAccepted != 3000 || st.BadRecords != 30 {
		t.Errorf("final status counts %d lines, %d records, %d bad; want 3030, 3000, 30",
			st.AcceptedLines, st.RecordsAccepted, st.BadRecords)
	}
}

// seriesValue reads one series of a registry snapshot.
func seriesValue(reg *telemetry.Registry, name, labels string) (float64, bool) {
	for _, f := range reg.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.Labels == labels {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// TestStreamGaugesFollowRecreatedStream deletes and re-creates stream id x,
// then feeds the new stream until its last window checkpoints. The
// per-stream checkpoint-age gauge must read the live stream — between two
// status reads of its last_checkpoint_age — and after a final delete
// neither per-stream gauge has a series for x.
func TestStreamGaugesFollowRecreatedStream(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, c := newTestServer(t, Options{Registry: reg})
	cfg := testConfig("x", 6)
	del := func() {
		if resp, body := c.do("DELETE", "/v1/streams/x", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("delete x: %d %s", resp.StatusCode, body)
		}
	}
	c.create(cfg)
	del()
	c.create(cfg)
	c.ingestAll(cfg.ID, genInput(t, 6, 300))
	c.waitCheckpoint(cfg.ID, 300)
	gauge := func(name string) float64 {
		v, ok := seriesValue(reg, name, `{stream="x"}`)
		if !ok {
			t.Fatalf("no %s series for stream x", name)
		}
		return v
	}

	before, err := srv.Status(cfg.ID)
	if err != nil {
		t.Fatal(err)
	}
	age := gauge(MetricCheckpointAge)
	after, err := srv.Status(cfg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if before.LastCheckpointAge <= 0 || age < before.LastCheckpointAge || age > after.LastCheckpointAge {
		t.Errorf("%s reads %v, want it between the status reads %v and %v",
			MetricCheckpointAge, age, before.LastCheckpointAge, after.LastCheckpointAge)
	}

	del()
	for _, name := range []string{MetricCheckpointAge, MetricQueueDepth} {
		if v, ok := seriesValue(reg, name, `{stream="x"}`); ok {
			t.Errorf("%s still has a series for stream x (reading %v) after it was deleted", name, v)
		}
	}
}

// TestDeleteDropsStreamSeries: deleting durable stream x removes every
// {stream="x"} series from the scrape — throughput counters, pull gauges
// and the WAL segment gauge — and leaves neighbor x2's alone; a re-created
// x counts from 0.
func TestDeleteDropsStreamSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, c := newTestServer(t, Options{DataDir: t.TempDir(), Registry: reg})
	scrapeLines := func(labels string) []string { return scrapeLines(t, reg, labels) }
	for _, id := range []string{"x", "x2"} {
		c.create(testConfig(id, 7))
		c.ingestAll(id, genInput(t, 7, 120))
		c.waitCheckpoint(id, 100)
	}
	for _, name := range durableStreamSeries {
		if _, ok := seriesValue(reg, name, `{stream="x"}`); !ok {
			t.Fatalf("no %s series for stream x before the delete", name)
		}
	}

	if resp, body := c.do("DELETE", "/v1/streams/x", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete x: %d %s", resp.StatusCode, body)
	}
	if lines := scrapeLines(`stream="x"`); len(lines) > 0 {
		t.Errorf("deleted stream x still scrapes:\n%s", strings.Join(lines, "\n"))
	}
	if got := len(scrapeLines(`stream="x2"`)); got != len(durableStreamSeries) {
		t.Errorf("neighbor x2 scrapes %d series after x was deleted, want %d", got, len(durableStreamSeries))
	}

	c.create(testConfig("x", 7))
	for _, name := range []string{MetricStreamRecords, MetricStreamWindows} {
		if v, ok := seriesValue(reg, name, `{stream="x"}`); !ok || v != 0 {
			t.Errorf("re-created x: %s reads %v (registered %v), want 0", name, v, ok)
		}
	}
}

// durableStreamSeries are the {stream=id} series a durable stream
// registers.
var durableStreamSeries = []string{MetricStreamRecords, MetricStreamWindows, MetricQueueDepth,
	MetricCheckpointAge, wal.MetricSegments}

// scrapeLines returns the lines of reg's Prometheus scrape that contain
// labels.
func scrapeLines(t *testing.T, reg *telemetry.Registry, labels string) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ln := range strings.Split(buf.String(), "\n") {
		if strings.Contains(ln, labels) {
			out = append(out, ln)
		}
	}
	return out
}

// TestFailedCreateLeavesNoSeries: a create registers its {stream=id}
// series before the pipeline config is validated and before the lease,
// store and WAL open, and DELETE of an id that was never created answers
// 404, so a create that fails must drop them itself — without touching the
// series of a concurrent create of the same id that won.
func TestFailedCreateLeavesNoSeries(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	srv, c := newTestServer(t, Options{DataDir: dir, Registry: reg})

	// Rejected by the pipeline's config check.
	ghost := `{"id":"ghost","window":0,"epsilon":0.1,"delta":0.4,"min_support":10,"vuln_support":5,"scheme":"hybrid","lambda":0.4,"seed":7}`
	if resp, body := c.do("POST", "/v1/streams", strings.NewReader(ghost)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create ghost: %d %s, want 400", resp.StatusCode, body)
	}
	if lines := scrapeLines(t, reg, `stream="ghost"`); len(lines) > 0 {
		t.Errorf("failed create of ghost left series:\n%s", strings.Join(lines, "\n"))
	}

	// Refused at the lease: a second server over the same data dir, whose
	// stream directory the first one's lease holds.
	c.create(testConfig("held", 7))
	reg2 := telemetry.NewRegistry()
	srv2 := New(Options{DataDir: dir, Registry: reg2})
	t.Cleanup(srv2.Abort)
	if _, err := srv2.Create(testConfig("held", 7)); err == nil {
		t.Fatal("second server created a stream whose lease the first one holds")
	}
	if lines := scrapeLines(t, reg2, `stream="held"`); len(lines) > 0 {
		t.Errorf("create refused at the lease left series:\n%s", strings.Join(lines, "\n"))
	}
	if got := len(scrapeLines(t, reg, `stream="held"`)); got != len(durableStreamSeries) {
		t.Errorf("the lease holder scrapes %d series, want %d", got, len(durableStreamSeries))
	}

	// Concurrent creates of one id: the losers fail (at the claim, or at
	// the lease the winner holds) and must leave the winner's series.
	const racers = 6
	errs := make(chan error, racers)
	for range racers {
		go func() {
			_, err := srv.Create(testConfig("race", 7))
			errs <- err
		}()
	}
	won := 0
	for range racers {
		if err := <-errs; err == nil {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d of %d concurrent creates of one id won, want 1", won, racers)
	}
	for _, name := range durableStreamSeries {
		if _, ok := seriesValue(reg, name, `{stream="race"}`); !ok {
			t.Errorf("the winning create lost its %s series to the losers", name)
		}
	}
}
