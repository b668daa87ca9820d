package server

// Control-plane reads taken while a stream is live: the status JSON and the
// per-stream pull gauges must describe the stream that holds the id now,
// without racing the ingest path.

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/telemetry"
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

// TestStreamGaugesFollowRecreatedStream deletes and re-creates stream id x,
// then feeds the new stream until its last window checkpoints. The
// per-stream checkpoint-age gauge must read the live stream — between two
// status reads of its last_checkpoint_age — and after a final delete both
// per-stream gauges read 0.
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
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, st := c.status(cfg.ID); st.CheckpointRecords == 300 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream x never checkpointed its last window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	gauge := func(name string) float64 {
		for _, f := range reg.Snapshot() {
			if f.Name != name {
				continue
			}
			for _, s := range f.Series {
				if s.Labels == `{stream="x"}` {
					return s.Value
				}
			}
		}
		t.Fatalf("no %s series for stream x", name)
		return 0
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
		if v := gauge(name); v != 0 {
			t.Errorf("%s reads %v after stream x was deleted, want 0", name, v)
		}
	}
}
