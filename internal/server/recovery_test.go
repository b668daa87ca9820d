package server

// The recovery differential suite: kill the daemon (simulated via Abort —
// buffered WAL frames drop exactly as a real death would drop them) at
// every crash boundary of the two durable write protocols — checkpoint
// save (before-write, before-rename, torn-write) and WAL group sync
// (before-sync, torn-sync) — plus clean kills between requests and a torn
// WAL tail, then Recover in a fresh server over the same data dir and pin:
//
//   - union of windows published across both incarnations == the
//     uninterrupted reference run, byte for byte (consistent
//     republication, zero accepted-record loss, no divergent duplicates);
//   - every line the client got a 2xx for survives (the client re-sends
//     from its acked offset and the ?offset= dedup absorbs the overlap).
//
// CI runs these race-enabled.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/itemset"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// durClient drives ingest the way a durability-aware client must: tracking
// its acked line count and re-sending from it with ?offset= after any
// failure, so retries are idempotent and a lost response cannot double- or
// under-ingest.
type durClient struct {
	t     *testing.T
	c     *tClient
	id    string
	lines []string
	acked int
}

func newDurClient(t *testing.T, c *tClient, id, input string) *durClient {
	return &durClient{t: t, c: c, id: id,
		lines: strings.Split(strings.TrimRight(input, "\n"), "\n")}
}

func (d *durClient) rebase(c *tClient) { d.c = c }

// feed sends the unacked tail in small chunks. It returns false at the
// first durability failure (HTTP 500 — the injected crash landed inside
// this request's group sync) or when stop() reports the crash fired
// elsewhere (checkpoint-save injection); true once everything is acked.
func (d *durClient) feed(stop func() bool) bool {
	d.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for d.acked < len(d.lines) {
		if stop != nil && stop() {
			return false
		}
		end := d.acked + 37
		if end > len(d.lines) {
			end = len(d.lines)
		}
		chunk := strings.Join(d.lines[d.acked:end], "\n") + "\n"
		resp, body := d.c.do("POST",
			fmt.Sprintf("/v1/streams/%s/records?offset=%d", d.id, d.acked),
			strings.NewReader(chunk))
		var ir ingestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			d.t.Fatalf("ingest %s: bad response %q", d.id, body)
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			d.acked += ir.Accepted
			// The stream may hold more of our lines than we ever saw
			// acknowledged (recovery adopted a torn group's synced frames);
			// the response total is the authoritative resume offset.
			if n := int(ir.AcceptedLines); n > d.acked && n <= len(d.lines) {
				d.acked = n
			}
			if resp.StatusCode != http.StatusOK {
				time.Sleep(2 * time.Millisecond)
			}
		case http.StatusInternalServerError:
			// The whole group was unwound before acceptance; nothing acked.
			if ir.Accepted != 0 {
				d.t.Fatalf("ingest %s: durability failure acked %d lines", d.id, ir.Accepted)
			}
			return false
		default:
			d.t.Fatalf("ingest %s: %d %s", d.id, resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("ingest %s: stuck at line %d/%d", d.id, d.acked, len(d.lines))
		}
	}
	return true
}

// crashSpec is one kill boundary of the recovery matrix.
type crashSpec struct {
	name string
	// killAfter stops feeding once at least this many lines are acked (clean
	// kill between requests). 0: the injected hook decides the kill moment.
	killAfter int
	// ckptPoint/ckptSave install a checkpoint.Store crash at that protocol
	// point of the Nth save.
	ckptPoint string
	ckptSave  int
	// walPoint/walSync install a wal.Log crash at that point of the Nth
	// group sync.
	walPoint string
	walSync  int
	// tearTail appends garbage to the newest WAL segment after the kill —
	// the torn final frame a real power cut leaves.
	tearTail bool
	// badLines splices malformed lines into the input (budget unlimited),
	// pinning that the WAL carries bad-line positions through recovery.
	badLines bool
	// killAgain, when set, kills the recovered server too once at least
	// this many lines are acked and recovers a third one: the second
	// recovery's checkpoint line comes from checkpoints the first
	// recovery's run wrote.
	killAgain int
	// records sizes the input (default 600).
	records int
}

func TestRecoverKillAtEveryBoundary(t *testing.T) {
	specs := []crashSpec{
		{name: "kill-early", killAfter: 150},
		{name: "kill-late", killAfter: 450},
		{name: "kill-bad-lines", killAfter: 300, badLines: true},
		{name: "kill-twice-bad-lines", killAfter: 300, killAgain: 650, badLines: true, records: 900},
		{name: "ckpt-before-write", ckptPoint: checkpoint.CrashBeforeWrite, ckptSave: 2},
		{name: "ckpt-before-rename", ckptPoint: checkpoint.CrashBeforeRename, ckptSave: 2},
		{name: "ckpt-torn-write", ckptPoint: checkpoint.CrashTornWrite, ckptSave: 3},
		{name: "wal-before-sync", walPoint: wal.CrashBeforeSync, walSync: 5},
		{name: "wal-torn-sync", walPoint: wal.CrashTornSync, walSync: 5},
		{name: "torn-tail", killAfter: 300, tearTail: true},
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			runCrashSpec(t, sp)
		})
	}
}

func runCrashSpec(t *testing.T, sp crashSpec) {
	root := t.TempDir()
	cfg := testConfig("s", 42)
	cfg.CheckpointEvery = 1
	records := sp.records
	if records == 0 {
		records = 600
	}
	input := genInput(t, 7, records)
	if sp.badLines {
		cfg.MaxBadRecords = -1
		input = withBadLines(input, 40)
	}
	ref := referenceWindows(t, cfg, input)
	if len(ref) == 0 {
		t.Fatal("reference run published nothing")
	}

	var fired atomic.Bool
	opts1 := Options{DataDir: root, WALSegmentBytes: 4 << 10}
	if sp.ckptPoint != "" {
		plan := &faultinject.CrashPlan{Point: sp.ckptPoint, OnSave: sp.ckptSave}
		hook := plan.Hook()
		opts1.hookStore = func(_ string, store *checkpoint.Store) {
			store.CrashHook = func(point string, save int) bool {
				if hook(point, save) {
					fired.Store(true)
					return true
				}
				return false
			}
		}
	}
	if sp.walPoint != "" {
		opts1.hookWAL = func(_ string, lg *wal.Log) {
			lg.CrashHook = func(point string, sync int) bool {
				if point == sp.walPoint && sync == sp.walSync {
					fired.Store(true)
					return true
				}
				return false
			}
		}
	}

	srv1, c1 := newTestServer(t, opts1)
	c1.create(cfg)
	dc := newDurClient(t, c1, "s", input)
	stop := func() bool {
		if sp.killAfter > 0 {
			return dc.acked >= sp.killAfter
		}
		return fired.Load()
	}
	if done := dc.feed(stop); done {
		t.Fatalf("crash never fired; stream fully ingested (%d lines)", dc.acked)
	}
	if sp.ckptPoint != "" || sp.walPoint != "" {
		if !fired.Load() {
			t.Fatal("injected crash hook never fired")
		}
	}
	srv1.Abort() // the kill: unsynced WAL buffers drop, nothing acked is lost
	wins := []map[int]string{c1.windows("s")}

	if sp.tearTail {
		segs, err := filepath.Glob(filepath.Join(root, "streams", "s", wal.SegmentGlob))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no wal segments to tear: %v (%d)", err, len(segs))
		}
		sort.Strings(segs)
		if err := faultinject.AppendBytes(segs[len(segs)-1],
			[]byte("\xde\xad\xbe\xef torn final frame")); err != nil {
			t.Fatal(err)
		}
	}

	// recoverServer boots a fresh server over the crashed data dir. It returns the
	// line the checkpoint recovery resumes from, read off the store before
	// Recover, and counts the record reads the recovered pipeline makes.
	var nexts atomic.Int64
	recoverServer := func() (*Server, *tClient, uint64) {
		store, err := checkpoint.NewStore(filepath.Join(root, "streams", "s"), 0)
		if err != nil {
			t.Fatal(err)
		}
		snap, _, err := store.Latest()
		if err != nil {
			t.Fatal(err)
		}
		var ckptLine uint64
		if snap != nil {
			ckptLine = snap.Records + snap.BadRecords
		}
		nexts.Store(0)
		srv, c := newTestServer(t, Options{DataDir: root, WALSegmentBytes: 4 << 10,
			WrapSource: func(_ string, src pipeline.RecordSource) pipeline.RecordSource {
				return sourceFunc(func() (itemset.Itemset, error) {
					nexts.Add(1)
					return src.Next()
				})
			}})
		rep, err := srv.Recover()
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if rep.Adopted != 1 || rep.Parked != 0 {
			t.Fatalf("recover adopted %d / parked %d, want 1/0", rep.Adopted, rep.Parked)
		}
		_, st := c.status("s")
		if !st.Durable {
			t.Fatal("adopted stream is not durable")
		}
		if st.AcceptedLines < uint64(dc.acked) {
			t.Fatalf("recovery lost accepted lines: acked %d, recovered %d",
				dc.acked, st.AcceptedLines)
		}
		dc.rebase(c)
		return srv, c, ckptLine
	}

	srv2, c2, ckptLine := recoverServer()
	if sp.killAgain > 0 {
		if done := dc.feed(func() bool { return dc.acked >= sp.killAgain }); done {
			t.Fatalf("second kill never fired; stream fully ingested (%d lines)", dc.acked)
		}
		srv2.Abort()
		wins = append(wins, c2.windows("s"))
		_, c2, ckptLine = recoverServer()
	}

	if done := dc.feed(nil); !done {
		t.Fatal("post-recovery feed crashed")
	}
	c2.closeStream("s")
	c2.waitState("s", StateDone, 60*time.Second)
	wins = append(wins, c2.windows("s"))
	_, final := c2.status("s")
	if final.AcceptedLines != uint64(len(dc.lines)) {
		t.Fatalf("stream accepted %d lines total, client sent %d",
			final.AcceptedLines, len(dc.lines))
	}
	// Recovery work does not grow with the stream: the recovered pipeline
	// reads exactly the lines past its checkpoint, then io.EOF — never the
	// prefix the checkpoint already covers.
	if got, want := nexts.Load(), int64(len(dc.lines))-int64(ckptLine)+1; got != want {
		t.Errorf("recovered pipeline read %d records, want %d (%d lines past checkpoint line %d, plus EOF)",
			got, want, want-1, ckptLine)
	}

	// The union across incarnations must be the reference run exactly:
	// every reference window present, overlapping republications
	// byte-identical, nothing extra.
	union := map[int]string{}
	for _, win := range wins {
		for pos, body := range win {
			if prev, ok := union[pos]; ok && prev != body {
				t.Errorf("window at position %d republished with different bytes", pos)
			}
			union[pos] = body
		}
	}
	if len(union) != len(ref) {
		t.Errorf("union has %d windows, reference has %d", len(union), len(ref))
	}
	for pos, want := range ref {
		if union[pos] != want {
			t.Errorf("window at position %d differs from the reference run", pos)
		}
	}
	for pos := range union {
		if _, ok := ref[pos]; !ok {
			t.Errorf("union has spurious window at position %d", pos)
		}
	}
}

// TestRecoverScansSinceAnchor: a crashed stream's WAL holds about the lines
// since its third-newest full anchor, not the whole stream, so recovery's
// scan stays bounded as the stream ages. A durable stream with a full
// snapshot every third checkpoint is fed in lockstep (each POST waits for
// its window) past at least six full anchors, plus a tail that completes no
// window, and aborted. The frames left on disk must number at most three
// anchor intervals plus the lines past the newest checkpoint, under the
// default segment cap and a small one, and Recover must replay exactly the
// lines past the checkpoint.
func TestRecoverScansSinceAnchor(t *testing.T) {
	for _, tc := range []struct {
		name     string
		segBytes int64
		records  int
	}{
		{"default-cap", 0, 1400},
		{"small-cap", 2 << 10, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const tail = 20
			root := t.TempDir()
			cfg := testConfig("s", 8)
			cfg.CheckpointFullEvery = 3
			interval := cfg.PublishEvery * cfg.CheckpointFullEvery
			if anchors := (tc.records-cfg.Window)/interval + 1; anchors < 6 {
				t.Fatalf("%d records make %d full anchors, want at least 6", tc.records, anchors)
			}
			lines := strings.SplitAfter(genInput(t, 8, tc.records+tail), "\n")

			srv1, c1 := newTestServer(t, Options{DataDir: root, WALSegmentBytes: tc.segBytes})
			c1.create(cfg)
			for fed := 0; fed < tc.records; {
				next := fed + cfg.PublishEvery
				c1.ingestAll(cfg.ID, strings.Join(lines[fed:next], ""))
				fed = next
				if fed >= cfg.Window {
					c1.waitCheckpoint(cfg.ID, uint64(fed))
				}
			}
			c1.ingestAll(cfg.ID, strings.Join(lines[tc.records:tc.records+tail], ""))
			srv1.Abort()

			dir := filepath.Join(root, "streams", cfg.ID)
			store, err := checkpoint.NewStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			snap, _, err := store.Latest()
			if err != nil || snap == nil {
				t.Fatalf("newest checkpoint: %v, %v", snap, err)
			}
			past := tc.records + tail - int(snap.Records+snap.BadRecords)
			if past != tail {
				t.Fatalf("%d lines past the newest checkpoint, want the %d-line tail", past, tail)
			}
			lg, rep, err := wal.Open(dir, wal.Options{SegmentBytes: tc.segBytes})
			if err != nil {
				t.Fatal(err)
			}
			segs := lg.SegmentCount()
			lg.Close()
			if bound := 3*interval + past; rep.Frames > bound {
				t.Errorf("the WAL holds %d frames in %d segments after %d lines, want at most %d (3 anchor intervals of %d + %d past the checkpoint)",
					rep.Frames, segs, tc.records+tail, bound, interval, past)
			}

			srv2, _ := newTestServer(t, Options{DataDir: root, WALSegmentBytes: tc.segBytes})
			rrep, err := srv2.Recover()
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if rrep.Adopted != 1 || rrep.Replayed != past {
				t.Errorf("recover adopted %d and replayed %d lines, want 1 and the %d past the checkpoint",
					rrep.Adopted, rrep.Replayed, past)
			}
		})
	}
}

// TestRecoverManifestStates pins that durable lifecycle states survive the
// kill: a stream quarantined before the crash comes back quarantined with
// its LastError, next to a healthy neighbor that comes back running.
func TestRecoverManifestStates(t *testing.T) {
	root := t.TempDir()
	sink := func(id string, emit func(pipeline.Window) error) func(pipeline.Window) error {
		if id != "q" {
			return emit
		}
		return func(pipeline.Window) error {
			return fmt.Errorf("injected permanent sink failure")
		}
	}
	srv1, c1 := newTestServer(t, Options{
		DataDir: root, BreakerFailures: 2, RestartBackoff: time.Millisecond,
		WrapSink: sink,
	})
	c1.create(testConfig("ok", 1))
	c1.create(testConfig("q", 2))
	c1.ingestAll("ok", genInput(t, 3, 150))
	c1.ingestAll("q", genInput(t, 4, 150))
	c1.waitState("q", StateQuarantined, 30*time.Second)
	srv1.Abort()

	srv2, c2 := newTestServer(t, Options{DataDir: root})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Adopted != 1 || rep.Parked != 1 {
		t.Fatalf("recover adopted %d / parked %d, want 1/1", rep.Adopted, rep.Parked)
	}
	_, okSt := c2.status("ok")
	if okSt.State != StateRunning {
		t.Errorf("ok stream adopted as %q, want running", okSt.State)
	}
	_, qSt := c2.status("q")
	if qSt.State != StateQuarantined {
		t.Errorf("q stream adopted as %q, want quarantined", qSt.State)
	}
	if !strings.Contains(qSt.LastError, "injected permanent sink failure") {
		t.Errorf("quarantined stream lost its last error across the kill: %q", qSt.LastError)
	}
	// A resumed quarantine (the fault is gone on srv2) must drain cleanly.
	resp, body := c2.do("POST", "/v1/streams/q/resume", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume q: %d %s", resp.StatusCode, body)
	}
	c2.closeStream("q")
	c2.waitState("q", StateDone, 60*time.Second)
}

// TestRecoverParksRawStream: a manifest entry for a raw stream — one an
// older binary admitted — is parked quarantined at boot instead of serving
// true supports, refuses resume, and deletes cleanly.
func TestRecoverParksRawStream(t *testing.T) {
	root := t.TempDir()
	srv1, c1 := newTestServer(t, Options{DataDir: root})
	c1.create(testConfig("r", 1))
	// Less than a window: no checkpoint exists whose fingerprint could
	// refuse the adoption on its own.
	c1.ingestAll("r", genInput(t, 2, 50))
	srv1.Abort()

	// Rewrite the entry as the older binary would have stored a raw stream.
	path := filepath.Join(root, "manifest.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var mf manifestFile
	if err := json.Unmarshal(b, &mf); err != nil {
		t.Fatal(err)
	}
	e := mf.Streams["r"]
	e.Config.Raw, e.Fingerprint.Raw = true, true
	mf.Streams["r"] = e
	if b, err = json.Marshal(mf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, c2 := newTestServer(t, Options{DataDir: root})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Adopted != 0 || rep.Parked != 1 {
		t.Fatalf("recover adopted %d / parked %d, want 0/1", rep.Adopted, rep.Parked)
	}
	_, st := c2.status("r")
	if st.State != StateQuarantined || !strings.Contains(st.LastError, "raw") {
		t.Fatalf("raw stream adopted as %q (%q), want quarantined for raw output", st.State, st.LastError)
	}
	if resp, body := c2.do("POST", "/v1/streams/r/resume", nil); resp.StatusCode == http.StatusOK {
		t.Fatalf("resume of a parked raw stream succeeded: %s", body)
	}
	if got := c2.windows("r"); len(got) != 0 {
		t.Fatalf("parked raw stream serves %d windows", len(got))
	}
	if resp, body := c2.do("DELETE", "/v1/streams/r", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	waitGone(t, filepath.Join(root, "streams", "r"))
}

// TestRecoverParksRetiredDrawOrder: a stream an older build ran at
// workers=1 carries Chunked=false in its manifest fingerprint and its
// checkpoints — drawn in a sequential order no build has any more. Boot
// adoption parks it quarantined with that cause, whether the manifest or
// only the checkpoint says so, instead of continuing it in another order.
func TestRecoverParksRetiredDrawOrder(t *testing.T) {
	for _, manifestToo := range []bool{true, false} {
		t.Run(fmt.Sprintf("manifest=%v", manifestToo), func(t *testing.T) {
			root := t.TempDir()
			srv1, c1 := newTestServer(t, Options{DataDir: root})
			cfg := testConfig("o", 1)
			cfg.Workers = 1
			cfg.CheckpointEvery = 1
			c1.create(cfg)
			c1.ingestAll("o", genInput(t, 2, 260))
			deadline := time.Now().Add(30 * time.Second)
			for {
				if _, st := c1.status("o"); st.CheckpointRecords >= 250 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("no checkpoint at record 250")
				}
				time.Sleep(10 * time.Millisecond)
			}
			srv1.Abort()

			// Rewrite the checkpoints and the manifest entry as the older
			// build stored them.
			store, err := checkpoint.NewStore(filepath.Join(root, "streams", "o"), 0)
			if err != nil {
				t.Fatal(err)
			}
			gens, err := store.Generations()
			if err != nil || len(gens) == 0 {
				t.Fatalf("no checkpoint generations: %v", err)
			}
			for _, gen := range gens {
				snap, err := checkpoint.Load(gen)
				if err != nil {
					t.Fatal(err)
				}
				snap.Meta.Chunked = false
				b, err := checkpoint.Encode(snap)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkpoint.AtomicWrite(gen, b); err != nil {
					t.Fatal(err)
				}
			}
			if manifestToo {
				path := filepath.Join(root, "manifest.json")
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var mf manifestFile
				if err := json.Unmarshal(b, &mf); err != nil {
					t.Fatal(err)
				}
				e := mf.Streams["o"]
				e.Fingerprint.Chunked = false
				mf.Streams["o"] = e
				if b, err = json.Marshal(mf); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			srv2, c2 := newTestServer(t, Options{DataDir: root})
			rep, err := srv2.Recover()
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if rep.Adopted != 0 || rep.Parked != 1 {
				t.Fatalf("recover adopted %d / parked %d, want 0/1", rep.Adopted, rep.Parked)
			}
			_, st := c2.status("o")
			if st.State != StateQuarantined || st.LastError != pipeline.ErrRetiredDrawOrder.Error() {
				t.Fatalf("retired-order stream adopted as %q (%q), want quarantined with %q",
					st.State, st.LastError, pipeline.ErrRetiredDrawOrder)
			}
			if got := c2.windows("o"); len(got) != 0 {
				t.Fatalf("parked stream serves %d windows", len(got))
			}
			if resp, body := c2.do("DELETE", "/v1/streams/o", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("delete: %d %s", resp.StatusCode, body)
			}
			waitGone(t, filepath.Join(root, "streams", "o"))
		})
	}
}

// TestRecoverOrphanSweep pins the GC ordering contract: directories the
// manifest does not claim are swept at boot, and an unreadable manifest
// aborts recovery without sweeping anything.
func TestRecoverOrphanSweep(t *testing.T) {
	root := t.TempDir()
	srv1, c1 := newTestServer(t, Options{DataDir: root})
	c1.create(testConfig("keep", 1))
	c1.ingestAll("keep", genInput(t, 2, 120))
	srv1.Abort()

	ghost := filepath.Join(root, "streams", "ghost")
	if err := os.MkdirAll(ghost, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ghost, "junk"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServer(t, Options{DataDir: root})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.Orphans) != 1 || rep.Orphans[0] != "ghost" {
		t.Fatalf("orphans = %v, want [ghost]", rep.Orphans)
	}
	if _, err := os.Stat(ghost); !os.IsNotExist(err) {
		t.Error("orphan directory survived the sweep")
	}
	if rep.Adopted != 1 {
		t.Fatalf("adopted %d, want 1", rep.Adopted)
	}
	srv2.Abort()

	// Corrupt manifest: recovery must refuse and must not sweep.
	if err := os.WriteFile(filepath.Join(root, "manifest.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv3, _ := newTestServer(t, Options{DataDir: root})
	if _, err := srv3.Recover(); err == nil {
		t.Fatal("recover accepted a corrupt manifest")
	}
	if _, err := os.Stat(filepath.Join(root, "streams", "keep")); err != nil {
		t.Errorf("corrupt-manifest recovery touched stream directories: %v", err)
	}
}

// TestStreamGC pins durable-footprint reclamation: a drained (done) stream
// and a deleted stream both lose their manifest entry and directory, a
// create the pipeline rejects never makes one, and a subsequent recovery
// adopts nothing.
func TestStreamGC(t *testing.T) {
	root := t.TempDir()
	srv, c := newTestServer(t, Options{DataDir: root})

	rejected := testConfig("rejected", 1)
	rejected.Window = 0
	b, err := json.Marshal(rejected)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := c.do("POST", "/v1/streams", bytes.NewReader(b)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create with window 0: %d %s, want 400", resp.StatusCode, body)
	}
	if _, err := os.Stat(filepath.Join(root, "streams", "rejected")); !os.IsNotExist(err) {
		t.Errorf("rejected create left its stream directory behind (stat: %v)", err)
	}

	c.create(testConfig("drained", 1))
	c.ingestAll("drained", genInput(t, 2, 150))
	c.closeStream("drained")
	c.waitState("drained", StateDone, 60*time.Second)
	waitGone(t, filepath.Join(root, "streams", "drained"))
	if _, ok := srv.manifestEntryFor("drained"); ok {
		t.Error("done stream still in the manifest")
	}

	c.create(testConfig("deleted", 2))
	c.ingestAll("deleted", genInput(t, 3, 150))
	resp, body := c.do("DELETE", "/v1/streams/deleted", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	waitGone(t, filepath.Join(root, "streams", "deleted"))
	if _, ok := srv.manifestEntryFor("deleted"); ok {
		t.Error("deleted stream still in the manifest")
	}
	srv.Abort()

	srv2, _ := newTestServer(t, Options{DataDir: root})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Adopted != 0 || rep.Parked != 0 {
		t.Fatalf("gc'd streams were re-adopted: %+v", rep)
	}
}

// editManifest rewrites the manifest under root as raw JSON, the way an
// older binary or an operator might have left it.
func editManifest(t *testing.T, root string, edit func(streams map[string]map[string]any)) {
	t.Helper()
	path := filepath.Join(root, "manifest.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Version int                       `json:"version"`
		Streams map[string]map[string]any `json:"streams"`
	}
	if err := json.Unmarshal(b, &mf); err != nil {
		t.Fatal(err)
	}
	edit(mf.Streams)
	if b, err = json.Marshal(mf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverDeleteParkedStream: a stream parked at boot before its lease
// and store opened (its scheme no longer parses) stays deleted — the
// delete drops its manifest entry, and the next boot sweeps the directory
// it never held as an orphan instead of parking the stream again.
func TestRecoverDeleteParkedStream(t *testing.T) {
	root := t.TempDir()
	srv1, c1 := newTestServer(t, Options{DataDir: root})
	c1.create(testConfig("x", 1))
	c1.ingestAll("x", genInput(t, 2, 120))
	srv1.Abort()
	editManifest(t, root, func(streams map[string]map[string]any) {
		streams["x"]["config"].(map[string]any)["scheme"] = "retired-scheme"
	})

	srv2, c2 := newTestServer(t, Options{DataDir: root})
	if rep, err := srv2.Recover(); err != nil || rep.Parked != 1 {
		t.Fatalf("recover: %+v, %v; want x parked", rep, err)
	}
	if _, st := c2.status("x"); st.State != StateQuarantined {
		t.Fatalf("x adopted as %q, want quarantined", st.State)
	}
	if resp, body := c2.do("DELETE", "/v1/streams/x", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	srv2.Abort()

	srv3, c3 := newTestServer(t, Options{DataDir: root})
	rep, err := srv3.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if code, st := c3.status("x"); code != http.StatusNotFound {
		t.Fatalf("deleted stream came back: %d %+v", code, st)
	}
	if rep.Parked != 0 || len(rep.Orphans) != 1 || rep.Orphans[0] != "x" {
		t.Fatalf("recover after delete: %+v, want x swept as an orphan", rep)
	}
}

// TestRecoverManifestWithRetiredField: manifest decoding stays lenient, so
// an entry carrying a config key this build no longer has (older builds
// stored "resume": false in every entry) is still adopted.
func TestRecoverManifestWithRetiredField(t *testing.T) {
	root := t.TempDir()
	srv1, c1 := newTestServer(t, Options{DataDir: root})
	c1.create(testConfig("old", 1))
	c1.ingestAll("old", genInput(t, 2, 120))
	srv1.Abort()
	editManifest(t, root, func(streams map[string]map[string]any) {
		streams["old"]["config"].(map[string]any)["resume"] = false
	})

	srv2, c2 := newTestServer(t, Options{DataDir: root})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Adopted != 1 || rep.Parked != 0 {
		t.Fatalf("recover adopted %d / parked %d, want 1/0", rep.Adopted, rep.Parked)
	}
	if _, st := c2.status("old"); st.State != StateRunning || st.AcceptedLines != 120 {
		t.Fatalf("old stream adopted as %q with %d lines, want running with 120", st.State, st.AcceptedLines)
	}
}

func waitGone(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s was never garbage-collected", path)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoverClosedStreamDrains pins the Closed manifest bit: a stream
// whose ingest was closed before the kill replays its WAL tail after
// recovery and drains to done with the reference windows — no client
// involvement at all.
func TestRecoverClosedStreamDrains(t *testing.T) {
	root := t.TempDir()
	cfg := testConfig("s", 9)
	cfg.CheckpointEvery = 1
	input := genInput(t, 11, 300)
	ref := referenceWindows(t, cfg, input)

	// Gate the first server's sink until it aborts: nothing publishes (or
	// checkpoints) before the kill, so the drain cannot finish — and GC the
	// stream — early. The Closed manifest bit must do all the draining after
	// recovery, fed purely by the WAL.
	var srv1 *Server
	srv1, c1 := newTestServer(t, Options{
		DataDir: root,
		WrapSink: func(_ string, _ func(pipeline.Window) error) func(pipeline.Window) error {
			return func(pipeline.Window) error {
				<-srv1.ctx.Done()
				return fmt.Errorf("sink gated until abort")
			}
		},
	})
	c1.create(cfg)
	c1.ingestAll("s", input)
	c1.closeStream("s")
	srv1.Abort()

	srv2, c2 := newTestServer(t, Options{DataDir: root})
	if _, err := srv2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	c2.waitState("s", StateDone, 60*time.Second)
	got := c2.windows("s")
	if len(got) != len(ref) {
		t.Errorf("recovered drain published %d windows, reference has %d", len(got), len(ref))
	}
	for pos, body := range got {
		if ref[pos] != body {
			t.Errorf("window at position %d differs from the reference run", pos)
		}
	}
	if _, ok := got[300]; !ok {
		t.Errorf("recovered closed stream never published its final window (got %d)", len(got))
	}
}

// TestIngestOffsetDedup pins the retry protocol at the unit level:
// duplicate re-sends are absorbed, gaps are refused.
func TestIngestOffsetDedup(t *testing.T) {
	_, c := newTestServer(t, Options{DataDir: t.TempDir()})
	c.create(testConfig("s", 1))
	lines := strings.Split(strings.TrimRight(genInput(t, 2, 30), "\n"), "\n")
	send := func(from, to int, offset int) (int, ingestResponse) {
		t.Helper()
		chunk := strings.Join(lines[from:to], "\n") + "\n"
		resp, body := c.do("POST",
			fmt.Sprintf("/v1/streams/s/records?offset=%d", offset), strings.NewReader(chunk))
		var ir ingestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatalf("bad response %q", body)
		}
		return resp.StatusCode, ir
	}
	if code, ir := send(0, 10, 0); code != http.StatusOK || ir.Accepted != 10 {
		t.Fatalf("initial send: %d accepted %d", code, ir.Accepted)
	}
	// Full duplicate (lost response): absorbed, nothing re-accepted.
	if code, ir := send(0, 10, 0); code != http.StatusOK || ir.Accepted != 0 {
		t.Fatalf("duplicate send: %d accepted %d, want 200/0", code, ir.Accepted)
	}
	// Partial overlap: only the new tail is accepted.
	if code, ir := send(5, 20, 5); code != http.StatusOK || ir.Accepted != 10 {
		t.Fatalf("overlap send: %d accepted %d, want 200/10", code, ir.Accepted)
	}
	// Gap: the client claims lines the stream never saw.
	if code, _ := send(25, 30, 25); code != http.StatusConflict {
		t.Fatalf("gap send: %d, want 409", code)
	}
	_, st := c.status("s")
	if st.AcceptedLines != 20 {
		t.Fatalf("accepted_lines = %d, want 20", st.AcceptedLines)
	}
	if !st.Durable {
		t.Fatal("stream with a data dir is not durable")
	}
}

// TestWALCorruptSealedSegment pins the bit-rot contract: recovery adopts
// the stream on the longest valid prefix (with the damage logged and the
// recoveries metric counting it), and the client's next offset-carrying
// request surfaces the loss as a 409 gap instead of silently re-numbering.
func TestWALCorruptSealedSegment(t *testing.T) {
	root := t.TempDir()
	reg := telemetry.NewRegistry()
	// Fail every checkpoint save on the first server: everything accepted
	// lives only in the WAL, so the sealed-segment damage has no checkpoint
	// to hide behind. (Failed saves fail the run; generous breaker settings
	// keep the stream restarting instead of quarantining.)
	srv1, c1 := newTestServer(t, Options{
		DataDir: root, WALSegmentBytes: 2 << 10,
		BreakerFailures: 1000, RestartBackoff: time.Millisecond,
		hookStore: func(_ string, store *checkpoint.Store) {
			store.CrashHook = func(point string, _ int) bool {
				return point == checkpoint.CrashBeforeWrite
			}
		},
	})
	cfg := testConfig("s", 5)
	c1.create(cfg)
	dc := newDurClient(t, c1, "s", genInput(t, 6, 200))
	if !dc.feed(nil) {
		t.Fatal("feed crashed")
	}
	srv1.Abort()

	segs, err := filepath.Glob(filepath.Join(root, "streams", "s", wal.SegmentGlob))
	if err != nil || len(segs) < 2 {
		des, _ := os.ReadDir(filepath.Join(root, "streams", "s"))
		var names []string
		for _, de := range des {
			info, _ := de.Info()
			names = append(names, fmt.Sprintf("%s(%d)", de.Name(), info.Size()))
		}
		t.Fatalf("want >= 2 segments to corrupt a sealed one, got %d (%v); dir: %v", len(segs), err, names)
	}
	sort.Strings(segs)
	// Flip a byte mid-frame in the first (sealed) segment.
	if err := faultinject.FlipByte(segs[0], 64); err != nil {
		t.Fatal(err)
	}

	srv2, c2 := newTestServer(t, Options{DataDir: root, Registry: reg})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Adopted != 1 {
		_, dbg := c2.status("s")
		t.Fatalf("adopted %d, want 1 (corruption must degrade, not refuse): %+v / status %+v", rep.Adopted, rep, dbg)
	}
	_, st := c2.status("s")
	if st.AcceptedLines >= uint64(dc.acked) {
		t.Fatalf("corruption dropped nothing: recovered %d of %d acked", st.AcceptedLines, dc.acked)
	}
	// The client's resend sees the gap explicitly.
	resp, _ := c2.do("POST",
		fmt.Sprintf("/v1/streams/s/records?offset=%d", dc.acked),
		strings.NewReader("1 2 3\n"))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-corruption resend: %d, want 409 gap", resp.StatusCode)
	}
}
