package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/itemset"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/telemetry"
)

const (
	streamID = "bench"
	// backoffPause is the closed loop's fixed pause after a 429/503 before
	// it resumes from the server's accepted offset.
	backoffPause = time.Millisecond
	waitTimeout  = 90 * time.Second
	// blockedCall is the shortest source read recorded as a span of its own;
	// shorter reads are merged (see tracedSource).
	blockedCall = 100 * time.Microsecond
)

// published is one window a server incarnation emitted, seen through the
// public Options.WrapSink seam after the server's own emit returned.
type published struct {
	pos  int
	at   time.Time
	emit time.Duration // the server's emit call (render + store)
	hash uint64
}

// pubLog records every window one server incarnation publishes.
type pubLog struct {
	mu      sync.Mutex
	entries []published
	at      map[int]time.Time
	notify  chan struct{}
	rec     *recorder
}

func newPubLog(rec *recorder) *pubLog {
	return &pubLog{at: map[int]time.Time{}, notify: make(chan struct{}), rec: rec}
}

func (l *pubLog) wrap(_ string, emit func(pipeline.Window) error) func(pipeline.Window) error {
	return func(w pipeline.Window) error {
		t0 := time.Now()
		if err := emit(w); err != nil {
			return err
		}
		at := time.Now()
		h := windowHash(w.Output)
		l.rec.add(span{pid: 1, track: "server emit", name: "emit", start: t0, dur: at.Sub(t0), n: 1})
		l.mu.Lock()
		l.entries = append(l.entries, published{pos: w.Position, at: at, emit: at.Sub(t0), hash: h})
		l.at[w.Position] = at
		close(l.notify)
		l.notify = make(chan struct{})
		l.mu.Unlock()
		return nil
	}
}

// waitFor blocks until the window at pos has been published and returns
// when it was.
func (l *pubLog) waitFor(pos int) (time.Time, error) {
	deadline := time.NewTimer(waitTimeout)
	defer deadline.Stop()
	for {
		l.mu.Lock()
		at, ok := l.at[pos]
		ch := l.notify
		l.mu.Unlock()
		if ok {
			return at, nil
		}
		select {
		case <-ch:
		case <-deadline.C:
			return time.Time{}, fmt.Errorf("window at position %d not published within %v", pos, waitTimeout)
		}
	}
}

func (l *pubLog) snapshot() []published {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]published(nil), l.entries...)
}

// windowHash digests a published window's content — every itemset's items
// and sanitized support, in publication order. The rendered body is a
// function of exactly this plus the stream's vocabulary, which the oracle
// checks separately on the bodies the server retains.
func windowHash(out *core.Output) uint64 {
	h := fnv.New64a()
	var b []byte
	b = strconv.AppendInt(b, int64(len(out.Items)), 10)
	for _, it := range out.Items {
		b = append(b, ';')
		b = strconv.AppendInt(b, int64(it.Support), 10)
		for _, x := range it.Set.Items() {
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(x), 10)
		}
		if len(b) > 4096 {
			h.Write(b)
			b = b[:0]
		}
	}
	h.Write(b)
	return h.Sum64()
}

// tracedSource times every record read the mine stage makes (the
// Options.WrapSource seam). Reads that blocked get a span each; the rest are
// merged. waited accumulates all read time for pipeline.source_wait_frac.
type tracedSource struct {
	src    pipeline.RecordSource
	rec    *recorder
	waited *atomic.Int64
	acc    merged
}

func (s *tracedSource) Next() (itemset.Itemset, error) {
	t0 := time.Now()
	r, err := s.src.Next()
	d := time.Since(t0)
	s.waited.Add(int64(d))
	if d >= blockedCall {
		s.acc.flush(s.rec, 1, "server source", "source.next")
		s.rec.add(span{pid: 1, track: "server source", name: "source.next (blocked)", start: t0, dur: d, n: 1})
	} else {
		s.acc.add(t0, d)
		if s.acc.n >= 1000 {
			s.acc.flush(s.rec, 1, "server source", "source.next")
		}
	}
	return r, err
}

// svc is one server incarnation behind an in-process HTTP listener.
type svc struct {
	srv  *server.Server
	hs   *httptest.Server
	pubs *pubLog
	hc   *http.Client
	base string
}

// boot starts a server configured like butterflyd: telemetry on, queue
// depth 1024, full checkpoint every 16 generations, tracing off, and with a
// data dir only when durable — in which case Recover runs first, as the
// daemon's boot does.
func boot(dataDir string, rec *recorder, waited *atomic.Int64) (*svc, error) {
	pubs := newPubLog(rec)
	opts := server.Options{
		DataDir:             dataDir,
		QueueDepth:          1024,
		CheckpointFullEvery: 16,
		Registry:            telemetry.NewRegistry(),
		Logger:              slog.New(slog.NewTextHandler(io.Discard, nil)),
		WrapSink:            pubs.wrap,
	}
	if rec != nil {
		opts.WrapSource = func(_ string, src pipeline.RecordSource) pipeline.RecordSource {
			return &tracedSource{src: src, rec: rec, waited: waited}
		}
	}
	srv := server.New(opts)
	if dataDir != "" {
		if _, err := srv.Recover(); err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
	}
	mux := http.NewServeMux()
	srv.Routes(mux)
	hs := httptest.NewServer(mux)
	// One client on one keep-alive connection.
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &svc{srv: srv, hs: hs, pubs: pubs, hc: &http.Client{Transport: tr}, base: hs.URL}, nil
}

// abort is the simulated crash: streams are cancelled with no final window
// or checkpoint, then the listener closes.
func (s *svc) abort() {
	s.srv.Abort()
	s.close()
}

func (s *svc) close() {
	s.hc.CloseIdleConnections()
	s.hs.Close()
}

func (s *svc) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

func (s *svc) create(w workload, seed uint64) error {
	cfg := map[string]any{
		"id": streamID, "window": w.window, "epsilon": w.epsilon, "delta": privDelta,
		"min_support": w.support, "vuln_support": vulnSupport, "scheme": "hybrid",
		"lambda": lambda, "gamma": w.gamma, "seed": streamSeed(seed),
		"publish_every": w.publishEvery, "workers": workers,
	}
	if w.durable {
		cfg["checkpoint_every"] = 1
	}
	body, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	code, resp, err := s.do("POST", "/v1/streams", body)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("create stream: %d %s", code, resp)
	}
	return nil
}

type ingestResp struct {
	Accepted      int    `json:"accepted"`
	AcceptedLines uint64 `json:"accepted_lines"`
	Error         string `json:"error"`
}

// ingest POSTs body at the stream's line offset.
func (s *svc) ingest(body []byte, offset int) (int, ingestResp, error) {
	var r ingestResp
	code, b, err := s.do("POST", "/v1/streams/"+streamID+"/records?offset="+strconv.Itoa(offset), body)
	if err != nil {
		return 0, r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return code, r, fmt.Errorf("ingest response %d: %w", code, err)
	}
	return code, r, nil
}

type windowBody struct {
	Position int    `json:"position"`
	Body     string `json:"body"`
}

// windows fetches the bodies the stream retains for GET /windows.
func (s *svc) windows() ([]windowBody, error) {
	code, b, err := s.do("GET", "/v1/streams/"+streamID+"/windows", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("windows: %d %s", code, b)
	}
	var r struct {
		Windows []windowBody `json:"windows"`
	}
	return r.Windows, json.Unmarshal(b, &r)
}

// tally counts the client's requests for the attempted/failed report.
type tally struct {
	posts, failed, pressured int
	postTime                 time.Duration // summed round trips
}

// sendClosed delivers corpus records [a, b) in a closed loop of batch-line
// POSTs. base is the corpus index of the stream's first line, so the
// ?offset protocol speaks stream coordinates. On 429/503 the loop pauses
// briefly and resumes from the server's accepted count; those responses are
// flow control, not failures. Any other non-2xx fails the phase.
func (s *svc) sendClosed(c corpus, a, b, batch, base int, t *tally, rec *recorder) error {
	off := a
	for off < b {
		end := min(off+batch, b)
		t0 := time.Now()
		code, r, err := s.ingest(c.lines(off, end), off-base)
		d := time.Since(t0)
		rec.add(span{pid: 1, track: "client", name: "POST records", start: t0, dur: d, n: 1})
		t.posts++
		t.postTime += d
		if err != nil {
			t.failed++
			return err
		}
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			t.pressured++
			time.Sleep(backoffPause)
		default:
			t.failed++
			return fmt.Errorf("ingest at %d: %d %s", off, code, r.Error)
		}
		off = base + int(r.AcceptedLines)
	}
	return nil
}

// serverRun is everything one pass of the service measured.
type serverRun struct {
	setup []float64 // seconds per set-up repetition
	// Live samples, in the order measured across rounds.
	ingest     []float64 // live POST round trips from due time, ms
	late       []float64 // live sends after due time, ms
	lag        []float64 // live windows: emitted minus due time of the record's batch, ms
	backSecs   float64
	backRates  []float64     // records/s per backfill segment (see segmentRates)
	backPress  float64       // share of backfill POSTs answered 429/503
	srcWait    time.Duration // mine stage inside source reads during backfill (traced)
	heapMB     float64
	cpuSecs    float64 // user+sys from the final set-up through backfill
	cpuRecords int
	recovery   []float64 // seconds per recovery (durable) or refill (memory-only)
	tally      tally
	checks     []incarnation
}

// incarnation is what the oracle checks of one stream: the windows its
// server incarnations published and the bodies they retained.
type incarnation struct {
	// refill marks a memory-only restart, checked against a reference over
	// the re-sent records; the rest are checked against the stream's.
	refill bool
	// want lists the positions that must be published; nil means every
	// position of the reference.
	want   []int
	pubs   [][]published
	bodies []windowBody
}

type runSpec struct {
	w      workload
	seed   uint64
	plan   plan
	corpus corpus
	reps   int
	dir    string
	rec    *recorder
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runService drives one full pass: set-up repetitions, live, backfill, then
// the crash phase. It returns what it measured even on error, so the oracle
// can count what went missing.
func runService(rs runSpec) (*serverRun, error) {
	w, p, c, rec := rs.w, rs.plan, rs.corpus, rs.rec
	out := &serverRun{}
	var waited atomic.Int64
	var sv *svc
	var heap0 float64
	var cpu0 time.Duration
	dataDir := func(rep int) string {
		if !w.durable {
			return ""
		}
		return filepath.Join(rs.dir, fmt.Sprintf("data-%d", rep))
	}
	for rep := 0; rep < rs.reps; rep++ {
		if sv != nil {
			time.Sleep(repGap)
			sv.abort()
			out.checks = append(out.checks, incarnation{want: []int{p.fill}, pubs: [][]published{sv.pubs.snapshot()}})
			if d := dataDir(rep - 1); d != "" {
				os.RemoveAll(d)
			}
		}
		heap0 = heapMB()
		cpu0 = cpuTime()
		t0 := time.Now()
		var err error
		sv, err = boot(dataDir(rep), rec, &waited)
		if err != nil {
			return out, err
		}
		if err := sv.create(w, rs.seed); err != nil {
			sv.abort()
			return out, err
		}
		if err := sv.sendClosed(c, 0, p.fill, w.backBatch, 0, &out.tally, rec); err != nil {
			sv.abort()
			return out, fmt.Errorf("fill: %w", err)
		}
		at, err := sv.pubs.waitFor(p.fill)
		if err != nil {
			sv.abort()
			return out, fmt.Errorf("fill: %w", err)
		}
		out.setup = append(out.setup, at.Sub(t0).Seconds())
	}
	mainDir := dataDir(rs.reps - 1)
	fail := func(err error) (*serverRun, error) {
		sv.abort()
		out.checks = append(out.checks, incarnation{pubs: [][]published{sv.pubs.snapshot()}})
		return out, err
	}

	// Rounds of live then backfill (see rounds), each ending on a window.
	var pace pacer
	backPosts, backPress := 0, 0
	for _, ph := range p.phases() {
		var err error
		if ph.live {
			err = live(sv, c, ph, w, &pace, out, rec)
		} else {
			before := out.tally
			w0 := waited.Load()
			tb := time.Now()
			err = sv.sendClosed(c, ph.a, ph.b, w.backBatch, 0, &out.tally, rec)
			var at time.Time
			if err == nil {
				at, err = sv.pubs.waitFor(ph.b)
			}
			if err == nil {
				out.backSecs += at.Sub(tb).Seconds()
				out.backRates = append(out.backRates, segmentRates(sv.pubs, tb, ph.a, ph.b-ph.a, w.publishEvery)...)
				out.srcWait += time.Duration(waited.Load() - w0)
				backPosts += out.tally.posts - before.posts
				backPress += out.tally.pressured - before.pressured
			}
		}
		if err != nil {
			return fail(fmt.Errorf("records %d-%d: %w", ph.a, ph.b, err))
		}
	}
	backEnd := p.backEnd()
	out.backPress = float64(backPress) / float64(backPosts)
	out.cpuSecs = (cpuTime() - cpu0).Seconds()
	out.cpuRecords = backEnd
	out.heapMB = heapMB() - heap0
	bodies, err := sv.windows()
	if err != nil {
		return fail(err)
	}

	main := incarnation{pubs: [][]published{sv.pubs.snapshot()}, bodies: bodies}
	if w.durable {
		err = crashAndRecover(rs, sv, mainDir, backEnd, out, main, &waited)
	} else {
		sv.abort()
		main.pubs[0] = sv.pubs.snapshot()
		out.checks = append(out.checks, main)
		err = refill(rs, backEnd, out, &waited)
	}
	if mainDir != "" {
		os.RemoveAll(mainDir)
	}
	return out, err
}

// live runs one open-loop phase: batch i is due at t0 + i·B/R whatever
// happened to batch i-1, and every timing counts from the due time.
func live(sv *svc, c corpus, ph phase, w workload, pace *pacer, out *serverRun, rec *recorder) error {
	nb := (ph.b - ph.a) / w.liveBatch
	dues := make([]time.Time, nb)
	t0 := time.Now().Add(time.Millisecond)
	for i := 0; i < nb; i++ {
		due := t0.Add(dueOffset(i, w.liveBatch, w.liveRate))
		dues[i] = due
		pace.wait(due)
		sent := time.Now()
		a := ph.a + i*w.liveBatch
		b := a + w.liveBatch
		code, r, err := sv.ingest(c.lines(a, b), a)
		done := time.Now()
		rec.add(span{pid: 1, track: "client", name: "POST records (live)", start: sent, dur: done.Sub(sent), n: 1})
		out.tally.posts++
		out.tally.postTime += done.Sub(sent)
		if err != nil {
			out.tally.failed++
			return err
		}
		if code != http.StatusOK {
			// A refused live request misses any latency limit: it is a
			// failure. Deliver the rest in a closed loop so the stream stays
			// whole for the oracle.
			out.tally.failed++
			if err := sv.sendClosed(c, int(r.AcceptedLines), b, w.liveBatch, 0, &out.tally, rec); err != nil {
				return err
			}
		}
		out.late = append(out.late, ms(lateness(due, sent)))
		out.ingest = append(out.ingest, ms(done.Sub(due)))
	}
	if _, err := sv.pubs.waitFor(ph.b); err != nil {
		return err
	}
	for _, e := range sv.pubs.snapshot() {
		if e.pos > ph.a && e.pos <= ph.b {
			out.lag = append(out.lag, ms(e.at.Sub(dues[(e.pos-ph.a-1)/w.liveBatch])))
		}
	}
	return nil
}

// crashAndRecover sends the tail, waits until the server has consumed it and
// checkpointed the last window — so the crash point, the WAL tail to replay
// and the delta-chain length are fixed by record count — and aborts. It then
// times reps recoveries, each by a fresh server over its own copy of the
// crashed data dir, from server.New through Recover to the closed stream's
// final window.
func crashAndRecover(rs runSpec, sv *svc, dir string, backEnd int, out *serverRun, main incarnation, waited *atomic.Int64) error {
	w, p, c := rs.w, rs.plan, rs.corpus
	end := backEnd + p.tail
	crash := func() {
		sv.abort()
		main.pubs[0] = sv.pubs.snapshot()
	}
	if err := sv.sendClosed(c, backEnd, end, w.backBatch, 0, &out.tally, rs.rec); err != nil {
		crash()
		out.checks = append(out.checks, main)
		return fmt.Errorf("tail: %w", err)
	}
	deadline := time.Now().Add(waitTimeout)
	for {
		st, err := sv.srv.Status(streamID)
		if err == nil && st.RecordsConsumed == uint64(end) && st.CheckpointRecords == uint64(backEnd) {
			break
		}
		if time.Now().After(deadline) {
			crash()
			out.checks = append(out.checks, main)
			return fmt.Errorf("tail: server did not consume and checkpoint in %v (%+v)", waitTimeout, st)
		}
		time.Sleep(time.Millisecond)
	}
	crash()
	copies := make([]string, rs.reps)
	for i := range copies {
		copies[i] = fmt.Sprintf("%s-crashed-%d", dir, i)
		if err := copyDir(dir, copies[i]); err != nil {
			out.checks = append(out.checks, main)
			return err
		}
	}
	for i, d := range copies {
		time.Sleep(repGap)
		inc, err := recoverOnce(rs, d, end, out, waited)
		os.RemoveAll(d)
		if i == 0 {
			// The union of the windows before and after the crash must be
			// exactly the uninterrupted run's.
			main.pubs = append(main.pubs, inc.pubs...)
			main.bodies = append(main.bodies, inc.bodies...)
			out.checks = append(out.checks, main)
		} else {
			out.checks = append(out.checks, inc)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func recoverOnce(rs runSpec, dir string, end int, out *serverRun, waited *atomic.Int64) (incarnation, error) {
	inc := incarnation{want: []int{end}}
	t0 := time.Now()
	nv, err := boot(dir, rs.rec, waited)
	if err != nil {
		return inc, err
	}
	defer nv.close()
	code, b, err := nv.do("POST", "/v1/streams/"+streamID+"/close", nil)
	out.tally.posts++
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("close: %d %s", code, b)
	}
	if err != nil {
		out.tally.failed++
		nv.srv.Abort()
		inc.pubs = [][]published{nv.pubs.snapshot()}
		return inc, err
	}
	at, err := nv.pubs.waitFor(end)
	if err == nil {
		out.recovery = append(out.recovery, at.Sub(t0).Seconds())
		inc.bodies, err = nv.windows()
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	nv.srv.Shutdown(ctx)
	inc.pubs = [][]published{nv.pubs.snapshot()}
	return inc, err
}

// refill is the memory-only counterpart of recovery: nothing survives the
// crash, so a restarted server publishes again only once the client has
// re-sent a window's worth of records. It times reps restarts, each from
// server.New to the refilled stream's first window.
func refill(rs runSpec, backEnd int, out *serverRun, waited *atomic.Int64) error {
	w, c := rs.w, rs.corpus
	a := backEnd - w.window
	for i := 0; i < rs.reps; i++ {
		time.Sleep(repGap)
		inc := incarnation{refill: true, want: []int{w.window}}
		t0 := time.Now()
		nv, err := boot("", rs.rec, waited)
		if err != nil {
			return err
		}
		err = nv.create(w, rs.seed)
		if err == nil {
			err = nv.sendClosed(c, a, backEnd, w.backBatch, a, &out.tally, rs.rec)
		}
		var at time.Time
		if err == nil {
			at, err = nv.pubs.waitFor(w.window)
		}
		if err == nil {
			out.recovery = append(out.recovery, at.Sub(t0).Seconds())
			inc.bodies, err = nv.windows()
		}
		nv.abort()
		inc.pubs = [][]published{nv.pubs.snapshot()}
		out.checks = append(out.checks, inc)
		if err != nil {
			return fmt.Errorf("refill: %w", err)
		}
	}
	return nil
}

// segmentRates cuts the backfill's n records after position from into
// maxSegments segments that end on publication points, and returns each
// segment's records per second: from the window that ended the previous
// segment (the first POST, for the first) to the window that ends it.
func segmentRates(l *pubLog, start time.Time, from, n, every int) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var rates []float64
	prevPos, prevAt := from, start
	for i := 1; i <= maxSegments; i++ {
		pos := from + n*i/maxSegments/every*every
		at, ok := l.at[pos]
		if pos <= prevPos || !ok {
			continue
		}
		rates = append(rates, float64(pos-prevPos)/at.Sub(prevAt).Seconds())
		prevPos, prevAt = pos, at
	}
	return rates
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// emitDurations returns every server emit-call duration of the run, in ms.
func (out *serverRun) emitDurations() []float64 {
	var xs []float64
	for _, inc := range out.checks {
		for _, ps := range inc.pubs {
			for _, e := range ps {
				xs = append(xs, ms(e.emit))
			}
		}
	}
	return xs
}
