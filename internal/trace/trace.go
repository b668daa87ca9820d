// Package trace is the per-window span tracer of the Butterfly service — an
// in-process flight recorder. Where the telemetry package answers "how is
// the run doing on aggregate", this package answers "what did window 48200
// spend its time on": every published window carries a root span with child
// spans per pipeline stage (source, mine, perturb, emit, checkpoint.save,
// resume) and per publisher phase (bias.opt, cache), each with numeric
// attributes (record counts, cache traffic, retry attempts). The server
// layer reuses the same ring with ingest-request roots (StartRoot with
// KindIngest, children parse/wal.append/wal.fsync/enqueue.wait), so a
// single per-stream trace shows a record's full path from HTTP accept to
// published window.
//
// Spans are the service's only duration timer: every committed span feeds
// the butterfly_trace_span_seconds{span} histograms of the registry given
// to New (metrics.go), and the flight recorder is an optional second sink:
//
//   - While a window is in flight, its spans are recorded into a plain,
//     fixed-size record owned EXCLUSIVELY by the pipeline goroutine currently
//     processing that window. Ownership moves with the window through the
//     stage channels, so recording a span is a handful of plain stores —
//     lock-free, allocation-free, and race-free by construction.
//   - When the window finishes, Commit observes its spans into the registry
//     and, on a tracer with a ring, copies the record into a fixed-size ring
//     of the most recent windows under one mutex. A commit happens once per
//     window or ingest request and a read once per trace export, so the lock
//     is held briefly and rarely contended. Records are recycled through a
//     free list, so the steady-state hot path allocates nothing (asserted by
//     testing.AllocsPerRun in the package tests).
//   - A top-K slowest-window exemplar store, behind the same mutex, survives
//     ring eviction: the windows an operator actually wants to inspect after
//     a latency incident are still there even if thousands of fast windows
//     have since lapped the ring.
//
// A ring-less tracer (New with windows 0) keeps neither the ring nor the
// exemplar store and commits without the lock; it exists so a run with a
// registry but no flight recorder still times each duration once.
// Snapshots (for the /debug/trace/events endpoint and -trace-out files) are
// encoded as Chrome trace-event JSON — loadable in Perfetto or
// chrome://tracing — by chrome.go, so traces and /metrics cross-reference
// by window id. Tracing is strictly observation-only: the pipeline's A/B
// identity tests pin published bytes identical with tracing on and off.
package trace

import (
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Kind identifies what a span measured. Kinds are a closed set so span
// records stay fixed-size and allocation-free; String returns the stable
// name used in the Chrome JSON and the telemetry label.
type Kind uint8

const (
	// KindWindow is the root span: the whole life of one published window,
	// from the first record of its slide to its delivery (and checkpoint).
	KindWindow Kind = iota
	// KindSource is the aggregate time the mine stage spent blocked in
	// RecordSource.Next for this window's slide.
	KindSource
	// KindMine is the mine stage: record ingest + incremental mining +
	// snapshot materialization (excludes the hand-off backpressure).
	KindMine
	// KindPerturb is the perturb stage: the Butterfly sanitization of one
	// mining snapshot.
	KindPerturb
	// KindEmit is the emit stage: sink delivery including retries and their
	// backoff.
	KindEmit
	// KindCheckpointSave is the crash-safe snapshot write after delivery.
	KindCheckpointSave
	// KindResume is the checkpoint restore (window rebuild + publisher
	// restore) of a resumed run, a child of the first published window.
	KindResume
	// KindBiasOpt is the publisher's bias optimization (the paper's "Opt"
	// cost), a child of perturb.
	KindBiasOpt
	// KindCache is the publisher's perturbation/cache-consult phase, a child
	// of perturb carrying the cache hit/miss tally.
	KindCache
	// KindRetry is one failed delivery attempt that was retried, a child of
	// emit.
	KindRetry
	// KindIngest is a server-side root span: one HTTP ingest request's whole
	// life inside a stream, from the first parsed byte to the last record
	// enqueued (recorded by internal/server, not the pipeline).
	KindIngest
	// KindParse is the record-decode and staging time of one ingest request
	// (its staging loop less the WAL appends), a child of ingest.
	KindParse
	// KindWALAppend is the aggregate WAL encode+stage time of one ingest
	// request, a child of ingest.
	KindWALAppend
	// KindWALFsync is the group sync that made one ingest request durable
	// before its 2xx, a child of ingest.
	KindWALFsync
	// KindEnqueue is the time one ingest request spent blocked handing its
	// accepted records to the pipeline queue, a child of ingest.
	KindEnqueue

	numKinds = int(KindEnqueue) + 1
)

var kindNames = [numKinds]string{
	"window", "source", "mine", "perturb", "emit",
	"checkpoint.save", "resume", "bias.opt", "cache", "retry",
	"ingest", "parse", "wal.append", "wal.fsync", "enqueue.wait",
}

// String returns the stable span name ("mine", "checkpoint.save", ...).
func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Kinds returns every span kind, in declaration order (metrics registration
// and the doc-sync test iterate it).
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// AttrKey identifies a numeric span attribute. Like Kind it is a closed
// set, keeping attribute storage fixed-size.
type AttrKey uint8

const (
	// AttrWindow is the window id (the 1-based stream position of the
	// window's last record) — the join key against the telemetry gauges.
	AttrWindow AttrKey = iota
	// AttrRecords is the cumulative well-formed records consumed when the
	// window was mined.
	AttrRecords
	// AttrBadRecords is the cumulative malformed records skipped.
	AttrBadRecords
	// AttrRetries is the number of retried delivery attempts this window.
	AttrRetries
	// AttrAttempt is the 1-based attempt index on a retry span.
	AttrAttempt
	// AttrCacheHits is the republication-cache hits of this window.
	AttrCacheHits
	// AttrCacheMisses is the republication-cache misses of this window.
	AttrCacheMisses
	// AttrItemsets is the published itemset count of this window.
	AttrItemsets
	// AttrLines is the accepted-line count of an ingest request (good + bad).
	AttrLines
	// AttrQueueLen is the pipeline queue depth observed when an ingest
	// request finished enqueuing.
	AttrQueueLen

	numAttrKeys = int(AttrQueueLen) + 1
)

var attrKeyNames = [numAttrKeys]string{
	"window", "records", "bad_records", "retries", "attempt",
	"cache_hits", "cache_misses", "itemsets", "lines",
	"queue_len",
}

// String returns the stable attribute name used in the Chrome JSON args.
func (k AttrKey) String() string {
	if int(k) < numAttrKeys {
		return attrKeyNames[k]
	}
	return "unknown"
}

// Fixed record geometry. A window with more than MaxSpans spans (e.g. a
// pathological retry storm) drops the excess and counts it in Dropped.
const (
	// MaxSpans bounds the spans of one window record (root excluded).
	MaxSpans = 24
	// MaxAttrs bounds the attributes of one span.
	MaxAttrs = 6
)

// spanData is one completed span in an in-flight (plain, exclusively owned)
// window record. Times are nanoseconds since the tracer epoch.
type spanData struct {
	kind  Kind
	nattr int8
	start int64
	dur   int64
	akey  [MaxAttrs]AttrKey
	aval  [MaxAttrs]int64
}

// windowData is the plain form of one window's trace: the in-flight record,
// and the unit the ring and the exemplar store copy.
type windowData struct {
	id      uint64 // window id (stream position); 0 until SetID
	commit  uint64 // commit sequence, assigned by Commit
	start   int64  // root span start, nanos since epoch
	dur     int64  // root span duration, set by Commit
	kind    Kind   // root span kind; zero value is KindWindow
	nroot   int8   // attributes on the root span
	nspans  int32
	dropped int32
	rkey    [MaxAttrs]AttrKey
	rval    [MaxAttrs]int64
	spans   [MaxSpans]spanData
}

func (d *windowData) reset() { *d = windowData{} }

// Window is the in-flight trace of one published window. It is owned by
// exactly one goroutine at a time — the pipeline hands it from stage to
// stage with the window itself, and the channel transfer provides the
// happens-before edge — so its methods perform plain stores: no locks, no
// atomics, no allocation. All methods are nil-receiver safe; a disabled
// tracer hands out nil Windows and the instrumentation call sites need no
// guards.
type Window struct {
	t *Tracer
	windowData
}

// SetID binds the window id (stream position). Call it as soon as the id is
// known; it is the join key against metrics and logs.
func (w *Window) SetID(id uint64) {
	if w != nil {
		w.id = id
	}
}

// Attr sets a root-span attribute (last write wins is not needed: keys are
// distinct by convention; a full attribute table drops the write).
func (w *Window) Attr(key AttrKey, val int64) {
	if w == nil {
		return
	}
	if int(w.nroot) < MaxAttrs {
		w.rkey[w.nroot] = key
		w.rval[w.nroot] = val
		w.nroot++
	}
}

// SpanRef addresses one recorded span of a Window for attribute writes. The
// zero value is inert.
type SpanRef struct {
	w *Window
	i int32 // 1-based; 0 = invalid
}

// Attr sets an attribute on the referenced span.
func (s SpanRef) Attr(key AttrKey, val int64) {
	if s.w == nil || s.i == 0 {
		return
	}
	sp := &s.w.spans[s.i-1]
	if int(sp.nattr) < MaxAttrs {
		sp.akey[sp.nattr] = key
		sp.aval[sp.nattr] = val
		sp.nattr++
	}
}

// Add records one completed span: it started at start and ran for d. Spans
// may be recorded in any order; the Chrome encoder renders nesting from
// time containment. Returns a SpanRef for attribute writes.
func (w *Window) Add(kind Kind, start time.Time, d time.Duration) SpanRef {
	if w == nil {
		return SpanRef{}
	}
	if w.nspans >= MaxSpans {
		w.dropped++
		return SpanRef{}
	}
	sp := &w.spans[w.nspans]
	sp.kind = kind
	sp.nattr = 0
	sp.start = start.Sub(w.t.epoch).Nanoseconds()
	sp.dur = d.Nanoseconds()
	w.nspans++
	return SpanRef{w: w, i: w.nspans}
}

// DefaultWindows is the flight-recorder ring size the CLI and the server's
// build-info label use; DefaultTopK is the slowest-window exemplar store
// size of every tracer with a ring.
const (
	DefaultWindows = 256
	DefaultTopK    = 8
)

// Tracer records spans into the registry given to New and, when it has a
// ring, into the flight recorder. All methods are safe for concurrent use
// and nil-receiver safe: a nil *Tracer is a disabled tracer whose
// StartWindow returns nil, making instrumented code zero-cost when neither
// a registry nor a ring is attached (one pointer test per call site).
type Tracer struct {
	epoch time.Time
	now   func() time.Time // test seam; nil means time.Now

	free    chan *Window
	metrics *traceMetrics // see metrics.go; nil disables mirroring

	// The flight recorder: the newest len(ring) committed roots, slot
	// (commit-1) mod len(ring), and the DefaultTopK slowest windows, which
	// survive ring eviction. Both are empty on a ring-less tracer, whose
	// commits never take mu. A zero dur marks an empty slot.
	mu     sync.Mutex
	seq    uint64 // commit sequence
	ring   []windowData
	exRecs []windowData
}

// New returns a tracer whose committed spans feed reg's span histograms
// (none when reg is nil) and whose flight recorder retains the last windows
// roots plus the slowest-window exemplars. windows <= 0 makes it ring-less:
// no ring, no exemplar store, and Snapshot is empty.
func New(reg *telemetry.Registry, windows int) *Tracer {
	t := &Tracer{
		epoch: time.Now(),
		// The free list holds more records than the pipeline has windows in
		// flight, so the steady state never allocates; a drained list (e.g.
		// records abandoned by an aborted run) just re-allocates lazily.
		free:    make(chan *Window, 32),
		metrics: newTraceMetrics(reg),
	}
	if windows > 0 {
		t.ring = make([]windowData, windows)
		t.exRecs = make([]windowData, DefaultTopK)
	}
	return t
}

// Capacity returns the ring size (retained windows).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

func (t *Tracer) clock() time.Time {
	if t.now != nil {
		return t.now()
	}
	return time.Now()
}

// StartWindow begins recording one window's trace. The returned Window is
// exclusively owned by the caller (hand it off with the window itself);
// finish with Commit. A nil tracer returns a nil Window, whose methods all
// no-op.
func (t *Tracer) StartWindow() *Window {
	return t.StartRoot(KindWindow)
}

// StartRoot begins recording a trace rooted at an arbitrary span kind — the
// server uses KindIngest roots so one ring carries both window traces and
// the ingest requests that fed them. Only KindWindow roots compete for the
// slowest-window exemplar store and gauge; every root kind shares the ring.
func (t *Tracer) StartRoot(kind Kind) *Window {
	if t == nil {
		return nil
	}
	var w *Window
	select {
	case w = <-t.free:
		w.reset()
	default:
		w = &Window{}
	}
	w.t = t
	w.kind = kind
	w.start = t.clock().Sub(t.epoch).Nanoseconds()
	return w
}

// Commit finalizes w's root span, observes every span duration into the
// registry, copies the record into the ring (evicting the oldest root) and
// offers it to the slowest-window exemplar store when the tracer has them,
// and recycles the record. w must not be used after Commit. Nil tracer or
// nil w no-op.
func (t *Tracer) Commit(w *Window) {
	if t == nil || w == nil {
		return
	}
	w.dur = t.clock().Sub(t.epoch).Nanoseconds() - w.start
	if w.dur <= 0 {
		w.dur = 1 // keep committed records distinguishable from empty slots
	}
	t.observe(&w.windowData)
	if len(t.ring) > 0 {
		t.mu.Lock()
		t.seq++
		w.commit = t.seq
		t.ring[(t.seq-1)%uint64(len(t.ring))] = w.windowData
		if w.kind == KindWindow {
			t.admitExemplar(&w.windowData)
		}
		t.mu.Unlock()
	}
	select {
	case t.free <- w:
	default: // free list full; let the GC take it
	}
}

// admitExemplar copies one committed window into the top-K store when it
// is slower than the store's fastest entry (an empty slot reads 0). Called
// with mu held.
func (t *Tracer) admitExemplar(d *windowData) {
	var slot *windowData
	for i := range t.exRecs {
		if e := &t.exRecs[i]; slot == nil || e.dur < slot.dur {
			slot = e
		}
	}
	if slot != nil && d.dur > slot.dur {
		*slot = *d
	}
}

// Attr is one decoded span attribute.
type Attr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// Span is one decoded span of a snapshot record.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start"` // since the tracer epoch
	Dur   time.Duration `json:"dur"`
	Attrs []Attr        `json:"attrs,omitempty"`
}

// Record is one root span's decoded trace (a window, or a server-side
// ingest request).
type Record struct {
	Window  uint64        `json:"window"`
	Kind    string        `json:"kind"` // root span kind ("window", "ingest", ...)
	Seq     uint64        `json:"seq"`  // commit order
	Start   time.Duration `json:"start"`
	Dur     time.Duration `json:"dur"`
	Dropped int           `json:"dropped,omitempty"`
	Attrs   []Attr        `json:"attrs,omitempty"`
	Spans   []Span        `json:"spans"`
}

func decodeAttrs(n int, keys *[MaxAttrs]AttrKey, vals *[MaxAttrs]int64) []Attr {
	if n == 0 {
		return nil
	}
	out := make([]Attr, n)
	for i := 0; i < n; i++ {
		out[i] = Attr{Key: keys[i].String(), Val: vals[i]}
	}
	return out
}

func (d *windowData) record() Record {
	rec := Record{
		Window:  d.id,
		Kind:    d.kind.String(),
		Seq:     d.commit,
		Start:   time.Duration(d.start),
		Dur:     time.Duration(d.dur),
		Dropped: int(d.dropped),
		Attrs:   decodeAttrs(int(d.nroot), &d.rkey, &d.rval),
		Spans:   make([]Span, d.nspans),
	}
	for i := int32(0); i < d.nspans; i++ {
		sp := &d.spans[i]
		rec.Spans[i] = Span{
			Name:  sp.kind.String(),
			Start: time.Duration(sp.start),
			Dur:   time.Duration(sp.dur),
			Attrs: decodeAttrs(int(sp.nattr), &sp.akey, &sp.aval),
		}
	}
	return rec
}

// Snapshot decodes the retained windows — the ring union the slowest-window
// exemplars, de-duplicated — sorted by commit order. It copies the slots
// under the recorder's lock and decodes them after releasing it. Safe to
// call at any time, including concurrently with commits; nil tracer
// returns nil.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	slots := append(append([]windowData(nil), t.ring...), t.exRecs...)
	t.mu.Unlock()
	seen := make(map[uint64]bool, len(slots))
	out := make([]Record, 0, len(slots))
	for i := range slots {
		d := &slots[i]
		if d.dur != 0 && !seen[d.commit] {
			seen[d.commit] = true
			out = append(out, d.record())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
