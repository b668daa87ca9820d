// Package wal makes ingest acceptance durable: a per-stream segmented
// write-ahead log of CRC32-framed records, appended at HTTP accept time and
// group-fsynced before the 2xx leaves the server, so a kill -9 of the
// daemon loses nothing it acknowledged. The multi-stream server replays the
// log tail past the newest recovered checkpoint through its
// deterministic-restart path at boot (see internal/server), as a
// memory-only stream replays its retained in-memory tail. The log is
// truncated only up to full-snapshot anchors — never delta frames — so the
// tail always covers everything past the anchor and a lost or corrupt delta
// chain costs replay time, not data. Each full anchor also ends a segment,
// so the segments a recovery scans hold about the lines since the last few
// anchors, not whatever the size cap let one segment gather (see
// TruncateBefore).
//
// Segment format, frozen at version 1 (file name wal-%016d.seg, the
// zero-padded base line making lexical order equal stream order):
//
//	magic "BFLYWAL1" | uint64 LE base line | frame*
//
// and each frame:
//
//	uint32 LE len(payload) | uint32 LE CRC32(IEEE, payload) | payload
//
// where the payload is
//
//	uvarint line | byte kind | uvarint seq |
//	  good: uvarint item count | uvarint delta-encoded items
//	  bad:  varint parse line | string token | string reason
//
// with the frame, the delta-encoded items and the strings encoded by
// internal/frame, the same codec the checkpoint store uses.
//
// Lines are the stream's cumulative accepted-line coordinates (good + bad),
// strictly sequential across frames and segments; seq is the count of
// well-formed records up to and including the frame (a bad frame carries
// the seq of the preceding good one) — the same coordinates the server's
// queue items use. Decoding never panics and never yields a record beyond
// the last fully-valid frame: a torn tail or a corrupt segment recovers to
// the longest valid prefix with a logged warning, mirroring the checkpoint
// store's corrupt-generation fallback.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/data"
	"repro/internal/frame"
	"repro/internal/itemset"
	"repro/internal/telemetry"
)

const (
	segMagic  = "BFLYWAL1"
	segHeader = len(segMagic) + 8 // magic + uint64 base line
	segFormat = "wal-%016d.seg"
	segGlob   = "wal-*.seg"

	// MaxFrame bounds one frame's payload. A record is one ingest line, so
	// anything near this is corruption, not data; the decoder refuses larger
	// length headers before allocating.
	MaxFrame = 8 << 20

	kindGood = 0
	kindBad  = 1
)

// DefaultSegmentBytes is the segment size cap when Options does not set one.
// Segments normally end at full checkpoint anchors (see TruncateBefore); the
// cap ends those of streams whose anchors lie far apart.
const DefaultSegmentBytes = 4 << 20

// SegmentGlob matches segment files and TokensName is the token journal's
// file name — exported so the server can wipe a directory's durable log when
// a fresh (non-adopting) create reuses it.
const (
	SegmentGlob = segGlob
	TokensName  = tokenLogName
)

// Crash points of the group-sync protocol, consulted through Log.CrashHook
// (the same shape as checkpoint.Store.CrashHook) so the recovery suite can
// simulate a process death at each stage:
//
//   - CrashBeforeSync: the buffered frames never reach the disk — exactly
//     what a kill -9 between accept and fsync loses. No response carrying
//     those lines was ever sent, so recovery owes the client nothing.
//   - CrashTornSync: half the buffered bytes land (a torn write); recovery
//     must drop the partial tail frame and keep every earlier frame.
const (
	CrashBeforeSync = "before-sync"
	CrashTornSync   = "torn-sync"
)

// ErrInjectedCrash is returned by Sync when the CrashHook fired.
var ErrInjectedCrash = errors.New("wal: injected crash")

// ErrCorrupt marks bytes that failed structural validation. An incomplete
// trailing frame wraps frame.ErrTorn instead, only to label the recovery
// outcome: both recover to the longest valid prefix.
var ErrCorrupt = errors.New("wal: corrupt frame")

// Recovery outcome labels (the butterfly_server_wal_recoveries_total label
// values).
const (
	OutcomeClean    = "clean"
	OutcomeTornTail = "torn_tail"
	OutcomeCorrupt  = "corrupt"
)

// Record is one accepted ingest line: a well-formed record or a malformed
// line carried as its *data.ParseError, in the same shape the server's
// ingest queue uses.
type Record struct {
	// Line is the 1-based cumulative accepted-line index (good + bad).
	Line uint64
	// Seq is the count of well-formed records up to and including this one;
	// a bad record carries the seq of the preceding good one.
	Seq uint64
	Rec itemset.Itemset
	Bad *data.ParseError
}

// Options configures a Log.
type Options struct {
	// SegmentBytes caps a segment's size (default DefaultSegmentBytes): the
	// Sync that takes a segment past it seals the segment, whether or not a
	// full checkpoint anchor ended it first.
	SegmentBytes int64
	// Logf, when non-nil, receives warnings the log absorbs (torn tails,
	// corrupt segments dropped during recovery).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the wal instruments; Stream labels the
	// per-stream segment gauge.
	Metrics *telemetry.Registry
	Stream  string
}

// Report summarizes what Open recovered.
type Report struct {
	// Outcome is OutcomeClean, OutcomeTornTail or OutcomeCorrupt.
	Outcome string
	// Frames is the number of valid frames found on disk.
	Frames int
	// LastLine and LastSeq are the coordinates of the newest valid frame.
	LastLine, LastSeq uint64
	// DroppedBytes counts bytes discarded past the longest valid prefix;
	// DroppedSegments counts whole later segments discarded with them.
	DroppedBytes    int64
	DroppedSegments int
}

type segment struct {
	base uint64
	path string
}

// Log is one stream's write-ahead log. Appends buffer in memory; Sync
// flushes and fsyncs them as one group (the per-request durability barrier)
// and then seals the segment when a full anchor armed a roll or the segment
// outgrew the size cap. All methods are safe for concurrent use.
type Log struct {
	// CrashHook, when non-nil, is consulted with each crash point and the
	// 1-based sync number; returning true simulates a process crash there.
	// Set before the first Sync; test-only.
	CrashHook func(point string, sync int) bool

	mu       sync.Mutex
	dir      string
	segBytes int64
	logf     func(format string, args ...any)

	segs       []segment // all segments, oldest first; the last is active
	active     *os.File
	activeSize int64

	buf     []byte   // encoded frames awaiting Sync
	pending []Record // decoded form of buf, for Tail before durability
	last    uint64   // last appended line (buffered included)
	lastSeq uint64   // last appended good seq (buffered included)
	syncs   int
	roll    bool  // TruncateBefore saw a full anchor: seal the segment at the next Sync
	failed  error // a Sync failed; the log refuses further writes

	m *metricsSet
}

type metricsSet struct {
	segments   *telemetry.Gauge
	recoveries func(outcome string) *telemetry.Counter
	replayed   *telemetry.Counter
}

// WAL metric names (see OBSERVABILITY.md).
const (
	MetricSegments        = "butterfly_server_wal_segments"
	MetricRecoveries      = "butterfly_server_wal_recoveries_total"
	MetricReplayedRecords = "butterfly_server_wal_replayed_records_total"
)

// RegisterMetrics pre-registers the wal instrument namespace on reg (with
// placeholder label values) so the observability doc-sync test sees the
// full surface without standing up a server.
func RegisterMetrics(reg *telemetry.Registry) {
	m := newMetricsSet(reg, "example")
	m.recoveries(OutcomeClean)
}

func newMetricsSet(reg *telemetry.Registry, stream string) *metricsSet {
	if reg == nil {
		return nil
	}
	return &metricsSet{
		segments: reg.Gauge(MetricSegments,
			"WAL segment files currently on disk, per stream.",
			telemetry.Labels{"stream": stream}),
		recoveries: func(outcome string) *telemetry.Counter {
			return reg.Counter(MetricRecoveries,
				"WAL boot recoveries, by outcome (clean, torn_tail, corrupt).",
				telemetry.Labels{"outcome": outcome})
		},
		replayed: reg.Counter(MetricReplayedRecords,
			"Records replayed from WAL tails into restarted pipelines.", nil),
	}
}

// Open scans dir's segments oldest-first, validates every frame, and
// recovers the longest valid prefix: a torn or corrupt frame truncates its
// segment there and discards all later segments, with warnings through
// Options.Logf. The returned log is positioned to append after the newest
// valid frame.
func Open(dir string, opts Options) (*Log, Report, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Report{}, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	l := &Log{
		dir:      dir,
		segBytes: opts.SegmentBytes,
		logf:     opts.Logf,
		m:        newMetricsSet(opts.Metrics, opts.Stream),
	}
	rep, err := l.recover()
	if err != nil {
		return nil, rep, err
	}
	if l.m != nil {
		l.m.recoveries(rep.Outcome).Inc()
		l.m.segments.Set(float64(len(l.segs)))
	}
	return l, rep, nil
}

func (l *Log) warnf(format string, args ...any) {
	if l.logf != nil {
		l.logf(format, args...)
	}
}

// recover scans and repairs the on-disk state (called once, from Open).
func (l *Log) recover() (Report, error) {
	paths, err := filepath.Glob(filepath.Join(l.dir, segGlob))
	if err != nil {
		return Report{}, fmt.Errorf("wal: listing %s: %w", l.dir, err)
	}
	sort.Strings(paths)

	rep := Report{Outcome: OutcomeClean}
	var prev uint64 // last valid line seen across segments
	for i, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			return rep, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		base, herr := checkSegHeader(path, buf)
		if herr == nil {
			switch {
			case base <= prev:
				// Overlapping line ranges can only mean a forged or mangled
				// segment: lines are strictly sequential across rotations.
				herr = fmt.Errorf("%w: segment base %d at or below line %d", ErrCorrupt, base, prev)
			case base > prev+1:
				// A forward gap is legitimate history, not damage: checkpoint
				// pruning removes the oldest segments (so the first surviving
				// base is wherever the prune left it), and Rebase seals past
				// lines the newest checkpoint already covers. Tail still
				// verifies contiguity of any range it is asked to replay, so a
				// gap that actually lost needed records cannot go unnoticed.
				if i > 0 {
					l.warnf("wal: %d-line gap before segment %s (checkpoint-covered)", base-prev-1, path)
				}
				prev = base - 1
			}
		}
		if herr != nil {
			// The segment is unusable from byte zero: drop it and everything
			// after it. A header too short on the final segment is a torn
			// rotation; anything else is corruption.
			if i == len(paths)-1 && errors.Is(herr, frame.ErrTorn) {
				rep.Outcome = OutcomeTornTail
			} else {
				rep.Outcome = OutcomeCorrupt
			}
			l.warnf("wal: dropping segment %s and %d after it: %v", path, len(paths)-1-i, herr)
			for _, p := range paths[i:] {
				if info, err := os.Stat(p); err == nil {
					rep.DroppedBytes += info.Size()
				}
				if err := os.Remove(p); err != nil {
					return rep, fmt.Errorf("wal: removing unusable segment %s: %w", p, err)
				}
				rep.DroppedSegments++
			}
			frame.SyncDir(l.dir)
			break
		}
		_, goodLen, serr := scanFrames(buf[segHeader:], prev, 0, 0, func(r Record) {
			rep.Frames++
			rep.LastLine, prev = r.Line, r.Line
			if r.Bad == nil {
				rep.LastSeq = r.Seq
			}
		})
		if serr == nil {
			l.segs = append(l.segs, segment{base: base, path: path})
			continue
		}
		// Truncate this segment to its valid prefix and discard all later
		// segments: their lines would leave a gap after the cut.
		keep := int64(segHeader + goodLen)
		dropped := int64(len(buf)) - keep
		final := i == len(paths)-1
		if final && errors.Is(serr, frame.ErrTorn) {
			rep.Outcome = OutcomeTornTail
		} else {
			rep.Outcome = OutcomeCorrupt
		}
		l.warnf("wal: truncating %s to %d bytes (dropping %d) and %d later segments: %v",
			path, keep, dropped, len(paths)-1-i, serr)
		if err := os.Truncate(path, keep); err != nil {
			return rep, fmt.Errorf("wal: truncating %s: %w", path, err)
		}
		if err := fsyncFile(path); err != nil {
			return rep, err
		}
		rep.DroppedBytes += dropped
		for _, p := range paths[i+1:] {
			if info, err := os.Stat(p); err == nil {
				rep.DroppedBytes += info.Size()
			}
			if err := os.Remove(p); err != nil {
				return rep, fmt.Errorf("wal: removing unusable segment %s: %w", p, err)
			}
			rep.DroppedSegments++
		}
		frame.SyncDir(l.dir)
		l.segs = append(l.segs, segment{base: base, path: path})
		break
	}
	// prev, not rep.LastLine: an active segment left empty by a prune-then
	// -rotate still positions the log at its base-1, even with zero frames.
	l.last, l.lastSeq = prev, rep.LastSeq

	// Open (or create) the active segment for appending.
	if len(l.segs) == 0 {
		if err := l.newSegment(l.last + 1); err != nil {
			return rep, err
		}
	} else {
		act := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(act.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return rep, fmt.Errorf("wal: opening active segment: %w", err)
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return rep, fmt.Errorf("wal: sizing active segment: %w", err)
		}
		l.active, l.activeSize = f, info.Size()
	}
	return rep, nil
}

// checkSegHeader validates a segment's fixed header and returns its base
// line.
func checkSegHeader(path string, buf []byte) (uint64, error) {
	if len(buf) < segHeader {
		return 0, fmt.Errorf("%w: %d-byte segment header", frame.ErrTorn, len(buf))
	}
	if string(buf[:len(segMagic)]) != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	base := binary.LittleEndian.Uint64(buf[len(segMagic):segHeader])
	name := filepath.Base(path)
	digits := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	nameBase, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || nameBase != base {
		return 0, fmt.Errorf("%w: header base %d does not match file name %s", ErrCorrupt, base, name)
	}
	return base, nil
}

// scanFrames walks frames in b, calling fn for each valid one. Lines must
// be strictly sequential from prev+1. Every frame is validated in full —
// checksum, kind, item gaps, string bounds, no trailing bytes — but only
// frames with from < line <= to are decoded into a complete Record; fn sees
// the rest with their coordinates and kind alone (no items, and a
// placeholder Bad for a malformed line), which is all a recovery scan
// needs, at no allocation per frame. It returns the frame count, the byte
// length of the valid prefix, and the error that stopped the scan (nil
// when every byte validated).
func scanFrames(b []byte, prev, from, to uint64, fn func(Record)) (frames, goodLen int, err error) {
	off := 0
	for off < len(b) {
		payload, _, n, err := frame.Split(b[off:], MaxFrame, ErrCorrupt)
		var rec Record
		if err == nil {
			rec, err = decodePayload(payload, prev+1 > from && prev+1 <= to)
		}
		if err != nil {
			// A bad frame that is the last thing in the buffer looks like a
			// torn write even when its length header survived.
			if off+n >= len(b) && errors.Is(err, ErrCorrupt) && n > 0 {
				err = fmt.Errorf("%w (%v)", frame.ErrTorn, err)
			}
			return frames, off, err
		}
		if rec.Line != prev+1 {
			return frames, off, fmt.Errorf("%w: line %d after %d", ErrCorrupt, rec.Line, prev)
		}
		prev = rec.Line
		frames++
		off += n
		if fn != nil {
			fn(rec)
		}
	}
	return frames, off, nil
}

// ---- payload codec ----

func appendRecord(b []byte, r Record) []byte {
	b = binary.AppendUvarint(b, r.Line)
	if r.Bad != nil {
		b = append(b, kindBad)
		b = binary.AppendUvarint(b, r.Seq)
		b = binary.AppendVarint(b, int64(r.Bad.Line))
		b = frame.AppendString(b, r.Bad.Token)
		msg := ""
		if r.Bad.Err != nil {
			msg = r.Bad.Err.Error()
		}
		return frame.AppendString(b, msg)
	}
	b = append(b, kindGood)
	b = binary.AppendUvarint(b, r.Seq)
	return frame.AppendItems(b, r.Rec.Items())
}

// skippedBad is the placeholder Bad of a malformed-line frame validated
// without a full decode; it never leaves the package.
var skippedBad = &data.ParseError{}

// decodePayload validates a frame payload and decodes it: in full, or —
// full false — just its coordinates and kind, with the same checks on every
// byte and nothing allocated.
func decodePayload(payload []byte, full bool) (Record, error) {
	r := frame.NewReader(payload, ErrCorrupt)
	rec := Record{Line: r.Uvarint()}
	kind := r.Byte()
	rec.Seq = r.Uvarint()
	switch kind {
	case kindGood:
		items := frame.ReadItems[itemset.Item](r, full)
		if full {
			rec.Rec = itemset.FromSorted(items)
		}
	case kindBad:
		line := r.Int("parse line", 0, math.MaxInt32)
		token := r.Bytes("bad token")
		msg := r.Bytes("bad reason")
		rec.Bad = skippedBad
		if full {
			rec.Bad = &data.ParseError{Line: line, Token: string(token), Err: errors.New(string(msg))}
		}
	default:
		r.Fail("frame kind %d", kind)
	}
	if rec.Line == 0 {
		r.Fail("zero line")
	}
	if err := r.Done(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// ---- appends and durability ----

// Append buffers one record. It does not touch the disk: the record becomes
// durable at the next Sync, and the caller must not acknowledge the line
// before that Sync returns. Lines must be appended in order.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.active == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if r.Line != l.last+1 {
		return fmt.Errorf("wal: appending line %d after %d", r.Line, l.last)
	}
	start := len(l.buf)
	l.buf = appendRecord(frame.Begin(l.buf), r)
	if n := len(l.buf) - start - frame.HeaderLen; n > MaxFrame {
		l.buf = l.buf[:start]
		return fmt.Errorf("wal: record at line %d encodes to %d bytes, beyond MaxFrame", r.Line, n)
	}
	frame.Seal(l.buf, start)
	l.pending = append(l.pending, r)
	l.last = r.Line
	if r.Bad == nil {
		l.lastSeq = r.Seq
	}
	return nil
}

// Sync makes every buffered frame durable — one write plus one fsync per
// ingest request, whatever the record count — and then seals the segment
// after a full anchor (see TruncateBefore) or once it outgrows the size cap.
// A no-op when nothing is buffered.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if len(l.buf) == 0 {
		return nil
	}
	if l.active == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.syncLocked(); err != nil {
		// A failed group sync leaves the segment tail indeterminate (some of
		// the group's bytes may or may not have landed). Appending past that
		// hole could strand durable frames behind garbage, so the log refuses
		// everything from here on; reopening it — a process restart — repairs
		// the tail by longest-valid-prefix truncation.
		l.failed = err
		return err
	}
	return nil
}

func (l *Log) syncLocked() error {
	l.syncs++
	if l.crash(CrashBeforeSync) {
		return fmt.Errorf("%w: at %s", ErrInjectedCrash, CrashBeforeSync)
	}
	if l.crash(CrashTornSync) {
		// Simulated torn write: half the group lands and is even synced; the
		// frame cut in half must be dropped by recovery.
		if _, err := l.active.Write(l.buf[:len(l.buf)/2]); err != nil {
			return err
		}
		l.active.Sync()
		return fmt.Errorf("%w: at %s", ErrInjectedCrash, CrashTornSync)
	}
	if _, err := l.active.Write(l.buf); err != nil {
		return fmt.Errorf("wal: writing segment: %w", err)
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: syncing segment: %w", err)
	}
	l.activeSize += int64(len(l.buf))
	l.buf = l.buf[:0]
	l.pending = l.pending[:0]
	// The buffer is empty and the segment holds at least the frames just
	// written, so the successor's base is the next line and is new.
	if l.roll || l.activeSize >= l.segBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) crash(point string) bool {
	return l.CrashHook != nil && l.CrashHook(point, l.syncs)
}

// rotate seals the active segment and starts a new one based at the next
// line, which satisfies an armed roll. Caller holds l.mu.
func (l *Log) rotate() error {
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	l.active = nil
	l.roll = false
	return l.newSegment(l.last + 1)
}

// newSegment creates and opens the segment based at line base. Caller holds
// l.mu (or is Open, before the log is shared).
func (l *Log) newSegment(base uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf(segFormat, base))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	hdr := make([]byte, 0, segHeader)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, base)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing segment header: %w", err)
	}
	frame.SyncDir(l.dir)
	l.segs = append(l.segs, segment{base: base, path: path})
	l.active, l.activeSize = f, int64(segHeader)
	if l.m != nil {
		l.m.segments.Set(float64(len(l.segs)))
	}
	return nil
}

// TruncateBefore is the full-checkpoint notification. It removes sealed
// segments fully covered by line (every frame at or below it) and arms a
// roll: the next Sync seals the active segment, so every full anchor ends a
// segment and the log keeps, at segment granularity, about the lines since
// the caller's floor, however far apart size rotations fall. The active
// segment is never removed.
//
// The roll waits for that Sync rather than happening here: frames may be
// buffered now, and a segment based past them would misplace them; and the
// active segment may hold no frames yet, so its successor would reuse its
// base.
//
// With delta checkpointing the caller must pass the line of the newest FULL
// snapshot anchor, never a delta frame's: a delta is recoverable only by
// replaying its chain from the anchor, so the records between the anchor and
// the chain tip must stay in the log or a corrupt chain tail would strand
// them (internal/server calls this at full saves only, with the floor
// lagging one full generation).
func (l *Log) TruncateBefore(line uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		// Closed. A checkpoint save that was in flight when the server shut
		// this stream down may still deliver its OnSave afterwards — and by
		// then a successor process may own these files; removing them here
		// would pull segments out from under its recovery.
		return nil
	}
	l.roll = true
	removed := false
	for len(l.segs) > 1 && l.segs[1].base <= line+1 {
		if err := os.Remove(l.segs[0].path); err != nil {
			return fmt.Errorf("wal: pruning segment: %w", err)
		}
		l.segs = l.segs[1:]
		removed = true
	}
	if removed {
		frame.SyncDir(l.dir)
		if l.m != nil {
			l.m.segments.Set(float64(len(l.segs)))
		}
	}
	return nil
}

// Rebase positions the log to append after line, adopting seq as the good-
// record count there. Used at adoption when the newest checkpoint is ahead
// of everything the log retains (a damaged or fully pruned WAL): ingest
// appends in stream-line coordinates, so the log seals the active segment
// and starts a fresh one based past the checkpoint. The resulting gap is
// checkpoint-covered history; recovery tolerates it on the next open. A
// no-op when the log already reaches line.
func (l *Log) Rebase(line, seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.active == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if line <= l.last {
		return nil
	}
	if len(l.buf) > 0 {
		return fmt.Errorf("wal: rebasing to line %d with %d frames buffered", line, len(l.pending))
	}
	l.last, l.lastSeq = line, seq
	return l.rotate()
}

// Tail returns the records with from < line <= to, in order, verifying they
// are exactly the contiguous range from+1 .. to — the deterministic-restart
// replay list. Buffered (not yet synced) records are included: a record can
// be consumed by the pipeline before its request's group sync, and a replay
// that skipped it would lose it. from >= to returns nil.
func (l *Log) Tail(from, to uint64) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if to <= from {
		return nil, nil
	}
	var out []Record
	for i, seg := range l.segs {
		if i+1 < len(l.segs) && l.segs[i+1].base <= from+1 {
			continue // fully below the range
		}
		if seg.base > to {
			break
		}
		buf, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, fmt.Errorf("wal: reading segment: %w", err)
		}
		if len(buf) < segHeader {
			return nil, fmt.Errorf("wal: segment %s shorter than its header", seg.path)
		}
		if _, _, err := scanFrames(buf[segHeader:], seg.base-1, from, to, func(r Record) {
			if r.Line > from && r.Line <= to {
				out = append(out, r)
			}
		}); err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", seg.path, err)
		}
	}
	for _, r := range l.pending {
		if r.Line > from && r.Line <= to {
			out = append(out, r)
		}
	}
	next := from + 1
	for _, r := range out {
		if r.Line != next {
			return nil, fmt.Errorf("wal: tail (%d,%d] skips from line %d to %d", from, to, next-1, r.Line)
		}
		next++
	}
	if next != to+1 {
		return nil, fmt.Errorf("wal: tail (%d,%d] ends at line %d", from, to, next-1)
	}
	if l.m != nil {
		l.m.replayed.Add(uint64(len(out)))
	}
	return out, nil
}

// LastLine returns the newest appended line (buffered included).
func (l *Log) LastLine() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// LastSeq returns the newest appended good-record seq (buffered included).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// SegmentCount returns the number of segment files on disk.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close releases the active segment handle. Buffered, never-synced frames
// are dropped — their lines were never acknowledged.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	err := l.active.Close()
	l.active = nil
	return err
}

// ---- token journal ----

// TokenLog is the append-only vocabulary journal beside the WAL: one
// interned token per line, in interning order, so a recovered stream
// rebuilds the exact token→id assignment its WAL records (and checkpointed
// windows) were encoded under. Tokens are whitespace-delimited by the
// ingest grammar, so the newline framing is unambiguous; the journal is
// synced in the same per-request group as the WAL, before it, and is never
// truncated (unique tokens only — it grows with the vocabulary, not the
// stream).
type TokenLog struct {
	mu      sync.Mutex
	f       *os.File
	buf     []byte
	durable int   // tokens fully on disk
	total   int   // tokens appended (buffered included)
	failed  error // a Sync failed; the journal refuses further writes
}

// tokenLogName is the journal's file name inside the stream's wal dir.
const tokenLogName = "tokens.log"

// OpenTokens opens (creating if needed) dir's token journal and returns the
// recovered tokens in interning order. A partial trailing line — a torn
// write of a token that was never acknowledged — is dropped with a warning
// through logf and overwritten by the next append.
func OpenTokens(dir string, logf func(format string, args ...any)) (*TokenLog, []string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, tokenLogName)
	buf, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("wal: reading token journal: %w", err)
	}
	keep := len(buf)
	if i := strings.LastIndexByte(string(buf), '\n'); i+1 != len(buf) {
		keep = i + 1
		if logf != nil {
			logf("wal: dropping %d-byte torn tail of token journal", len(buf)-keep)
		}
		if err := os.Truncate(path, int64(keep)); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating token journal: %w", err)
		}
		if err := fsyncFile(path); err != nil {
			return nil, nil, err
		}
	}
	var tokens []string
	if keep > 0 {
		tokens = strings.Split(string(buf[:keep-1]), "\n")
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening token journal: %w", err)
	}
	n := len(tokens)
	return &TokenLog{f: f, durable: n, total: n}, tokens, nil
}

// Len returns the number of appended tokens (buffered included).
func (t *TokenLog) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Append buffers newly interned tokens; they become durable at Sync.
func (t *TokenLog) Append(tokens []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tok := range tokens {
		t.buf = append(t.buf, tok...)
		t.buf = append(t.buf, '\n')
		t.total++
	}
}

// Sync flushes and fsyncs buffered tokens. A no-op when nothing is
// buffered.
func (t *TokenLog) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed != nil {
		return t.failed
	}
	if len(t.buf) == 0 {
		return nil
	}
	if t.f == nil {
		return fmt.Errorf("wal: token journal is closed")
	}
	if err := t.syncLocked(); err != nil {
		// The file tail is indeterminate after a failed write or fsync;
		// re-appending the buffer could duplicate a partial line and corrupt
		// the token→id assignment, so the journal refuses everything from
		// here on. Reopening it (a process restart) repairs the tail.
		t.failed = err
		return err
	}
	return nil
}

func (t *TokenLog) syncLocked() error {
	if _, err := t.f.Write(t.buf); err != nil {
		return fmt.Errorf("wal: writing token journal: %w", err)
	}
	if err := t.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing token journal: %w", err)
	}
	t.buf = t.buf[:0]
	t.durable = t.total
	return nil
}

// Close releases the journal handle, dropping unsynced buffered tokens.
func (t *TokenLog) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}

// ---- fs helpers ----

func fsyncFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: reopening %s to sync: %w", path, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", path, err)
	}
	return nil
}
