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
	perStream := []string{MetricStreamRecords, MetricStreamWindows, MetricQueueDepth,
		MetricCheckpointAge, wal.MetricSegments}
	scrapeLines := func(labels string) []string {
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
	for _, id := range []string{"x", "x2"} {
		c.create(testConfig(id, 7))
		c.ingestAll(id, genInput(t, 7, 120))
		c.waitCheckpoint(id, 100)
	}
	for _, name := range perStream {
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
	if got := len(scrapeLines(`stream="x2"`)); got != len(perStream) {
		t.Errorf("neighbor x2 scrapes %d series after x was deleted, want %d", got, len(perStream))
	}

	c.create(testConfig("x", 7))
	for _, name := range []string{MetricStreamRecords, MetricStreamWindows} {
		if v, ok := seriesValue(reg, name, `{stream="x"}`); !ok || v != 0 {
			t.Errorf("re-created x: %s reads %v (registered %v), want 0", name, v, ok)
		}
	}
}
