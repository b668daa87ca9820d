package server

// Overload-behavior suite: backpressure (429), admission control (503),
// the per-tenant circuit breaker with quarantine and control-plane
// un-quarantine, pause/resume transparency, and hostile-client bodies
// (slow-loris and mid-upload drops). Complements server_test.go, which pins
// output identity; this file pins the failure-mode contract.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/itemset"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// TestBackpressure: with the pipeline wedged (a source wrapper that never
// delivers), a stream's bounded queue fills and ingest answers 429 with the
// accepted prefix — the client's retry offset.
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	reg := telemetry.NewRegistry()
	_, c := newTestServer(t, Options{
		Registry: reg,
		WrapSource: func(id string, src pipeline.RecordSource) pipeline.RecordSource {
			return sourceFunc(func() (itemset.Itemset, error) {
				<-gate
				return src.Next()
			})
		},
	})
	t.Cleanup(func() { close(gate) }) // runs before srv.Abort (LIFO)

	cfg := testConfig("wedged", 1)
	cfg.QueueDepth = 8
	c.create(cfg)

	input := genInput(t, 1, 100)
	resp, body := c.do("POST", "/v1/streams/wedged/records", strings.NewReader(input))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("ingest into a full queue: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	ir := decodeIngest(t, body)
	if ir.Accepted != 8 {
		t.Errorf("accepted %d records, want the queue depth 8", ir.Accepted)
	}
	if got := reg.CounterValue(MetricIngestRejections); got != 1 {
		t.Errorf("%s = %d, want 1", MetricIngestRejections, got)
	}
}

// TestOverloadInflightBytes: the server-wide inflight-bytes cap rejects
// ingest with 503 once queued-but-unconsumed records exceed it, regardless
// of per-stream queue room.
func TestOverloadInflightBytes(t *testing.T) {
	gate := make(chan struct{})
	reg := telemetry.NewRegistry()
	_, c := newTestServer(t, Options{
		Registry:         reg,
		MaxInflightBytes: 200,
		WrapSource: func(id string, src pipeline.RecordSource) pipeline.RecordSource {
			return sourceFunc(func() (itemset.Itemset, error) {
				<-gate
				return src.Next()
			})
		},
	})
	t.Cleanup(func() { close(gate) })

	c.create(testConfig("heavy", 1))
	input := genInput(t, 2, 100)
	resp, body := c.do("POST", "/v1/streams/heavy/records", strings.NewReader(input))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest past the inflight cap: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	ir := decodeIngest(t, body)
	if ir.Accepted == 0 || ir.Accepted >= 100 {
		t.Errorf("accepted %d records, want a partial prefix under the 200-byte cap", ir.Accepted)
	}
	if got := reg.CounterValue(MetricIngestRejections); got != 1 {
		t.Errorf("%s = %d, want 1", MetricIngestRejections, got)
	}
}

// TestAdmissionMaxStreams: stream slots are a hard admission cap — the
// N+1th create answers 503, and a delete frees the slot.
func TestAdmissionMaxStreams(t *testing.T) {
	_, c := newTestServer(t, Options{MaxStreams: 1})
	c.create(testConfig("only", 1))

	resp, body := c.do("POST", "/v1/streams",
		strings.NewReader(`{"id":"second","window":100,"epsilon":0.1,"delta":0.4,"min_support":10,"vuln_support":5,"scheme":"basic"}`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create past max-streams: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	if resp, body = c.do("DELETE", "/v1/streams/only", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	c.create(testConfig("second", 2)) // the freed slot admits again
}

// TestBreakerQuarantineAndHeal: a stream whose sink fails persistently trips
// the breaker after BreakerFailures consecutive failed runs and is
// quarantined — ingest refused, neighbors untouched — until a control-plane
// resume restarts it; once the fault is gone the stream completes and its
// windows are byte-identical to a clean reference run (deterministic
// restart from the retained lines: no window was ever saved).
func TestBreakerQuarantineAndHeal(t *testing.T) {
	var healed atomic.Bool
	reg := telemetry.NewRegistry()
	opts := Options{
		Registry:        reg,
		BreakerFailures: 2,
		RestartBackoff:  time.Millisecond,
		WrapSink: func(id string, emit func(pipeline.Window) error) func(pipeline.Window) error {
			if id != "sick" {
				return emit
			}
			return func(w pipeline.Window) error {
				if !healed.Load() {
					return fmt.Errorf("injected persistent sink failure")
				}
				return emit(w)
			}
		},
	}
	_, c := newTestServer(t, opts)

	cfg := testConfig("sick", 11)
	input := genInput(t, 11, 300)
	ref := referenceWindows(t, cfg, input)
	c.create(cfg)
	c.create(testConfig("neighbor", 12))
	neighborInput := genInput(t, 12, 300)

	// Ingest until the breaker interrupts: the sink starts failing at the
	// first publication, so quarantine can land while the client is still
	// sending. Rejected chunks are kept for after the heal.
	lines := strings.SplitAfter(strings.TrimRight(input, "\n")+"\n", "\n")
	off := 0
	deadline := time.Now().Add(30 * time.Second)
	for off < len(lines) {
		end := min(off+50, len(lines))
		resp, body := c.do("POST", "/v1/streams/sick/records",
			strings.NewReader(strings.Join(lines[off:end], "")))
		ir := decodeIngest(t, body)
		if resp.StatusCode == http.StatusConflict {
			break // quarantined mid-ingest; resend the rest after the heal
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest sick: %d %s", resp.StatusCode, body)
		}
		off += ir.Accepted
		if time.Now().After(deadline) {
			t.Fatal("sick stream never rejected or drained its input")
		}
	}
	st := c.waitState("sick", StateQuarantined, 30*time.Second)
	if st.ConsecutiveFailures < 2 {
		t.Errorf("quarantined after %d consecutive failures, want >= 2", st.ConsecutiveFailures)
	}
	if got := reg.CounterValue(MetricQuarantines); got != 1 {
		t.Errorf("%s = %d, want 1", MetricQuarantines, got)
	}

	// Quarantine refuses ingest with 409 and leaves the stream inspectable.
	resp, body := c.do("POST", "/v1/streams/sick/records", strings.NewReader("1 2 3\n"))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("ingest into quarantine: %d %s, want 409", resp.StatusCode, body)
	}

	// The healthy neighbor is not affected by its sick peer.
	c.ingestAll("neighbor", neighborInput)
	c.closeStream("neighbor")
	c.waitState("neighbor", StateDone, 30*time.Second)

	// Heal the fault, un-quarantine via the control plane, finish the stream.
	healed.Store(true)
	if resp, body = c.do("POST", "/v1/streams/sick/resume", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume out of quarantine: %d %s", resp.StatusCode, body)
	}
	c.ingestAll("sick", strings.Join(lines[off:], ""))
	c.closeStream("sick")
	c.waitState("sick", StateDone, 30*time.Second)

	got := c.windows("sick")
	if len(got) != len(ref) {
		t.Fatalf("healed stream published %d windows, reference %d", len(got), len(ref))
	}
	for pos, want := range ref {
		if got[pos] != want {
			t.Errorf("healed stream window at %d differs from the reference run", pos)
		}
	}
}

// straggler parks a stream's first checkpoint save at before-write until
// released, and logs the events the supervisor's join must order: each
// save reaching before-write ("save N"), each save returning ("saved R",
// R its record position) and each run's source ("run N").
type straggler struct {
	parked  chan struct{}
	release func()
	gate    chan struct{}

	mu     sync.Mutex
	events []string
}

func newStraggler() *straggler {
	g := &straggler{parked: make(chan struct{}), gate: make(chan struct{})}
	g.release = sync.OnceFunc(func() { close(g.gate) })
	return g
}

func (g *straggler) log(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.events = append(g.events, fmt.Sprintf(format, args...))
}

// index returns the position of ev in the event log, or -1.
func (g *straggler) index(ev string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Index(g.events, ev)
}

func (g *straggler) hookStore(_ string, store *checkpoint.Store) {
	onSave := store.OnSave
	store.OnSave = func(sv checkpoint.Saved) {
		onSave(sv)
		g.log("saved %d", sv.Records)
	}
	store.CrashHook = func(point string, save int) bool {
		if point == checkpoint.CrashBeforeWrite {
			g.log("save %d", save)
			if save == 1 {
				close(g.parked)
				<-g.gate
			}
		}
		return false
	}
}

func (g *straggler) waitParked(t *testing.T) {
	t.Helper()
	select {
	case <-g.parked:
	case <-time.After(30 * time.Second):
		t.Fatal("no checkpoint save reached before-write")
	}
}

// hold checks for 300 ms that check reports nothing: what the join must
// hold back while the save is parked.
func (g *straggler) hold(t *testing.T, check func() string) {
	t.Helper()
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if msg := check(); msg != "" {
			t.Fatalf("while a checkpoint save was parked: %s", msg)
		}
	}
}

// TestSupervisorJoinsStragglingSave parks a stream's first checkpoint save
// and, while it is parked, (i) deletes the stream or (ii) fails its run
// with a source fault. The supervisor joins the run before anything else
// touches the store: Delete must not return, nor the stream directory go,
// and the restart (its buildRestart, counted in restarts, and its first
// save) must not start, until the parked save returns.
func TestSupervisorJoinsStragglingSave(t *testing.T) {
	cfg := testConfig("s", 3)
	lines := strings.SplitAfter(genInput(t, 3, 150), "\n")

	t.Run("delete", func(t *testing.T) {
		root := t.TempDir()
		g := newStraggler()
		srv, c := newTestServer(t, Options{DataDir: root, hookStore: g.hookStore})
		t.Cleanup(g.release)
		c.create(cfg)
		c.ingestAll(cfg.ID, strings.Join(lines[:100], ""))
		g.waitParked(t)
		deleted := make(chan error, 1)
		go func() { deleted <- srv.Delete(cfg.ID) }()
		dir := filepath.Join(root, "streams", cfg.ID)
		g.hold(t, func() string {
			select {
			case err := <-deleted:
				return fmt.Sprintf("Delete returned (%v)", err)
			default:
			}
			if _, err := os.Stat(dir); err != nil {
				return fmt.Sprintf("the stream directory is gone (%v)", err)
			}
			return ""
		})
		g.release()
		select {
		case err := <-deleted:
			if err != nil {
				t.Fatalf("delete: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("Delete never returned after the save was released")
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("stream directory survived the delete (stat: %v)", err)
		}
	})

	t.Run("restart", func(t *testing.T) {
		g := newStraggler()
		var runs atomic.Int64
		var fault atomic.Bool
		_, c := newTestServer(t, Options{
			DataDir:        t.TempDir(),
			RestartBackoff: time.Millisecond,
			hookStore:      g.hookStore,
			WrapSource: func(_ string, src pipeline.RecordSource) pipeline.RecordSource {
				g.log("run %d", runs.Add(1))
				return sourceFunc(func() (itemset.Itemset, error) {
					if fault.CompareAndSwap(true, false) {
						return itemset.Itemset{}, errors.New("injected one-shot source failure")
					}
					return src.Next()
				})
			},
		})
		t.Cleanup(g.release)
		c.create(cfg)
		c.ingestAll(cfg.ID, strings.Join(lines[:100], ""))
		g.waitParked(t)
		// The source is blocked for line 101; once it arrives, the next read
		// fails the run.
		fault.Store(true)
		c.ingestAll(cfg.ID, lines[100])
		g.hold(t, func() string {
			if _, st := c.status(cfg.ID); st.Restarts != 0 {
				return fmt.Sprintf("the supervisor counted restart %d", st.Restarts)
			}
			if n := runs.Load(); n != 1 {
				return fmt.Sprintf("run %d started", n)
			}
			if g.index("save 2") >= 0 {
				return "a second save started"
			}
			return ""
		})
		if fault.Load() {
			t.Fatal("the injected source fault never fired")
		}
		g.release()
		c.ingestAll(cfg.ID, strings.Join(lines[101:], ""))
		c.waitCheckpoint(cfg.ID, 150)
		if _, st := c.status(cfg.ID); st.Restarts != 1 || st.State != StateRunning {
			t.Fatalf("after the release: %d restarts, state %s; want 1 restart, running", st.Restarts, st.State)
		}
		saved, run2, save2 := g.index("saved 100"), g.index("run 2"), g.index("save 2")
		if saved < 0 || run2 < saved || save2 < run2 {
			g.mu.Lock()
			defer g.mu.Unlock()
			t.Fatalf("events %q: want the parked save to return (saved 100) before run 2 and its save 2", g.events)
		}
	})
}

// TestMemoryOnlyRestartFromSnapshot: a memory-only stream restarts from its
// newest in-memory snapshot plus the lines consumed after it, however old
// the stream is. A window failing past 65,536 consumed records restarts the
// stream once; it then publishes every window byte-identical to a
// standalone run, and at rest it retains no line its snapshot covers.
func TestMemoryOnlyRestartFromSnapshot(t *testing.T) {
	const records, failAt = 70000, 66100
	cfg := testConfig("long", 3)
	cfg.PublishEvery = 2000
	input := genInput(t, 3, records)
	ref := referenceWindows(t, cfg, input)
	var failed atomic.Bool
	srv, c := newTestServer(t, Options{
		RestartBackoff: time.Millisecond,
		WrapSink: func(_ string, emit func(pipeline.Window) error) func(pipeline.Window) error {
			return func(w pipeline.Window) error {
				if w.Position == failAt && failed.CompareAndSwap(false, true) {
					return fmt.Errorf("injected one-shot sink failure at position %d", w.Position)
				}
				return emit(w)
			}
		},
	})
	c.create(cfg)
	c.ingestAll(cfg.ID, input)
	c.closeStream(cfg.ID)
	st := c.waitState(cfg.ID, StateDone, 60*time.Second)
	if !failed.Load() || st.Restarts != 1 {
		t.Fatalf("fault injected %v, %d restarts; want one restart after the fault", failed.Load(), st.Restarts)
	}
	if st.CheckpointRecords != records {
		t.Errorf("checkpoint_records = %d, want the final position %d", st.CheckpointRecords, records)
	}
	got := c.windows(cfg.ID)
	if len(got) != len(ref) {
		t.Errorf("published %d windows, reference %d", len(got), len(ref))
	}
	for pos, want := range ref {
		if got[pos] != want {
			t.Errorf("window at position %d differs from the reference run", pos)
		}
	}

	s := srv.get(cfg.ID)
	snap := s.mem.Latest()
	if snap == nil || snap.Records != records {
		t.Fatalf("newest snapshot %+v, want one at record %d", snap, records)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, it := range s.retained {
		if it.line <= snap.Records+snap.BadRecords {
			t.Fatalf("retained line %d is covered by the snapshot at line %d", it.line, snap.Records+snap.BadRecords)
		}
	}
}

// TestMemoryOnlyTailBounded: a memory-only stream with publish_every 0
// saves no snapshot before its end, so nothing prunes its retained tail.
// Fed past retainLimit lines it keeps at most retainLimit of them, and it
// gives up restartability: a fault on its one window quarantines it rather
// than publishing over the dropped lines.
func TestMemoryOnlyTailBounded(t *testing.T) {
	const records = retainLimit + 4000
	cfg := testConfig("rare", 4)
	cfg.PublishEvery = 0
	var failed atomic.Bool
	srv, c := newTestServer(t, Options{
		RestartBackoff: time.Millisecond,
		WrapSink: func(_ string, emit func(pipeline.Window) error) func(pipeline.Window) error {
			return func(w pipeline.Window) error {
				if failed.CompareAndSwap(false, true) {
					return errors.New("injected one-shot sink failure")
				}
				return emit(w)
			}
		},
	})
	c.create(cfg)
	c.ingestAll(cfg.ID, genInput(t, 4, records))
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, st := c.status(cfg.ID)
		if st.RecordsConsumed == records {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("consumed %d of %d records", st.RecordsConsumed, records)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s := srv.get(cfg.ID)
	s.mu.Lock()
	held, lost := len(s.retained), s.tailLost
	s.mu.Unlock()
	if held > retainLimit || lost == 0 {
		t.Fatalf("retained %d lines (dropped through line %d) after %d consumed; want at most %d", held, lost, records, retainLimit)
	}

	c.closeStream(cfg.ID)
	st := c.waitState(cfg.ID, StateQuarantined, 60*time.Second)
	if !failed.Load() || !strings.Contains(st.LastError, errTailLost.Error()) {
		t.Fatalf("quarantined with %q; want the dropped tail to refuse the restart", st.LastError)
	}
	if len(c.windows(cfg.ID)) != 0 {
		t.Fatal("a window was published over the dropped lines")
	}
}

// TestMemoryOnlyTailHeals: once a snapshot covers the lines a memory-only
// stream dropped from its retained tail, the stream can restart again, from
// that snapshot plus the lines past it.
func TestMemoryOnlyTailHeals(t *testing.T) {
	st := &stream{tailLost: 100}
	st.mem = &checkpoint.Memory{OnSave: st.onCheckpointSave}
	for line := uint64(101); line <= 120; line++ {
		st.retained = append(st.retained, queueItem{seq: line, line: line})
	}
	if _, _, err := st.buildRestart(); !errors.Is(err, errTailLost) {
		t.Fatalf("restart before a snapshot covers the dropped lines: err %v, want %v", err, errTailLost)
	}
	if err := st.mem.Save(&checkpoint.Snapshot{Records: 110}); err != nil {
		t.Fatal(err)
	}
	snap, replay, err := st.buildRestart()
	if err != nil {
		t.Fatalf("restart after a snapshot covers the dropped lines: %v", err)
	}
	if snap.Records != 110 || len(replay) != 10 || replay[0].line != 111 || replay[9].line != 120 {
		t.Fatalf("restart from record %d replaying %d lines; want record 110 replaying lines 111..120", snap.Records, len(replay))
	}
}

// TestRestartReplaysMalformedLines: an in-process restart replays every
// consumed line past its checkpoint, malformed ones included, selected by
// line — a malformed line carries the seq of the record before it. So a
// stream whose very first line exhausts a zero bad-record budget fails
// every restarted run the same way and quarantines, in memory-only and
// durable mode alike, instead of a restart silently dropping the line.
func TestRestartReplaysMalformedLines(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			opts := Options{BreakerFailures: 2, RestartBackoff: time.Millisecond}
			if durable {
				opts.DataDir = t.TempDir()
			}
			_, c := newTestServer(t, opts)
			c.create(testConfig("s", 1)) // max_bad_records 0: fail fast
			body := "bad\x00token\n" + genInput(t, 2, 20)
			if resp, b := c.do("POST", "/v1/streams/s/records", strings.NewReader(body)); resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest: %d %s", resp.StatusCode, b)
			}
			st := c.waitState("s", StateQuarantined, 30*time.Second)
			if st.Restarts != 2 || !strings.Contains(st.LastError, "bad-record budget") {
				t.Fatalf("quarantined after %d runs with %q, want 2 runs failing on the bad-record budget",
					st.Restarts, st.LastError)
			}
		})
	}
}

// TestPauseResume: pausing gates the source (no new windows) and refuses
// ingest with 409; resuming continues, and the pause leaves no trace in the
// published bytes.
func TestPauseResume(t *testing.T) {
	_, c := newTestServer(t, Options{})
	cfg := testConfig("p", 21)
	input := genInput(t, 21, 300)
	ref := referenceWindows(t, cfg, input)
	c.create(cfg)

	lines := strings.SplitAfter(strings.TrimRight(input, "\n")+"\n", "\n")
	c.ingestAll("p", strings.Join(lines[:150], ""))

	if resp, body := c.do("POST", "/v1/streams/p/pause", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: %d %s", resp.StatusCode, body)
	}
	if resp, _ := c.do("POST", "/v1/streams/p/pause", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double pause: %d, want 409", resp.StatusCode)
	}
	resp, body := c.do("POST", "/v1/streams/p/records", strings.NewReader("1 2\n"))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("ingest while paused: %d %s, want 409", resp.StatusCode, body)
	}

	if resp, body := c.do("POST", "/v1/streams/p/resume", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: %d %s", resp.StatusCode, body)
	}
	c.ingestAll("p", strings.Join(lines[150:], ""))
	c.closeStream("p")
	c.waitState("p", StateDone, 30*time.Second)

	got := c.windows("p")
	if len(got) != len(ref) {
		t.Fatalf("published %d windows across a pause, reference %d", len(got), len(ref))
	}
	for pos, want := range ref {
		if got[pos] != want {
			t.Errorf("window at %d differs after a pause/resume cycle", pos)
		}
	}
}

// TestHostileClientBodies: a slow-loris upload (trickled bytes) and a
// connection dropped mid-upload. Neither corrupts the stream — the
// trickled body lands intact, the dropped body keeps its accepted prefix,
// and after the client retries from that offset the published windows are
// byte-identical to a clean run.
func TestHostileClientBodies(t *testing.T) {
	srv, c := newTestServer(t, Options{})
	cfg := testConfig("hostile", 31)
	input := genInput(t, 31, 200)
	ref := referenceWindows(t, cfg, input)
	c.create(cfg)

	lines := strings.SplitAfter(strings.TrimRight(input, "\n")+"\n", "\n")
	head, tail := strings.Join(lines[:100], ""), strings.Join(lines[100:], "")

	// Slow loris: the first half trickles in 7-byte reads.
	resp, body := c.do("POST", "/v1/streams/hostile/records",
		faultinject.SlowReader(strings.NewReader(head), 7, time.Millisecond))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slow-loris ingest: %d %s", resp.StatusCode, body)
	}
	if ir := decodeIngest(t, body); ir.Accepted != 100 {
		t.Fatalf("slow-loris accepted %d lines, want 100", ir.Accepted)
	}

	// Dropped connection: the body errors after 64 bytes. The HTTP client
	// cannot fake a server-side read error, so drive the handler's ingest
	// path directly; the accepted prefix must stand and the error surface.
	st := srv.get("hostile")
	if st == nil {
		t.Fatal("stream not registered")
	}
	dropErr := errors.New("connection reset by peer")
	accepted, _, err := st.ingest(faultinject.HaltReader(strings.NewReader(tail), 64, dropErr), -1)
	if !errors.Is(err, dropErr) {
		t.Fatalf("halted body: err %v, want the injected drop", err)
	}
	if accepted == 0 || accepted >= 100 {
		t.Fatalf("halted body accepted %d lines, want a partial prefix", accepted)
	}

	// Client retry from the accepted offset completes the stream.
	rest := strings.Join(lines[100+accepted:], "")
	resp, body = c.do("POST", "/v1/streams/hostile/records", strings.NewReader(rest))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry ingest: %d %s", resp.StatusCode, body)
	}
	c.closeStream("hostile")
	c.waitState("hostile", StateDone, 30*time.Second)

	got := c.windows("hostile")
	if len(got) != len(ref) {
		t.Fatalf("published %d windows, reference %d", len(got), len(ref))
	}
	for pos, want := range ref {
		if got[pos] != want {
			t.Errorf("window at %d differs after hostile-client ingest", pos)
		}
	}
}

// decodeIngest unmarshals an ingest response body.
func decodeIngest(t *testing.T, body []byte) ingestResponse {
	t.Helper()
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("bad ingest response %q: %v", body, err)
	}
	return ir
}
