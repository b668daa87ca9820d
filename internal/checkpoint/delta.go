package checkpoint

// Delta checkpointing (format version 2). A full snapshot re-serializes the
// entire republication cache and window buffer every interval, even though a
// one-window slide touches a handful of cache entries — that re-serialization,
// plus the create/fsync/rename/fsync dance of an atomic save, is the
// durability tax the delta format removes. Between full snapshots the store
// appends CRC-framed deltas to a chain segment file: each frame carries only
// what changed since its parent (records appended to the sliding window,
// publisher cache upserts/evictions, the window counter and RNG cursor),
// and names its parent by record position AND checksum, so recovery
// can prove a frame extends exactly the state it is about to be applied to.
//
// On disk a chain lives beside its anchor full snapshot:
//
//	ckpt-%016d.bfck            the anchor (format version 1, unchanged)
//	delta-%016d.bfdl           the chain segment, same record position
//
// Segment layout:
//
//	magic "BFLYCKD2" | uint32 LE version | uint64 LE anchor records |
//	uint32 LE anchor CRC | frame*
//
// where the anchor CRC is CRC32(IEEE) over the anchor file's complete bytes,
// and each frame is an internal/frame frame, with no length bound:
//
//	uint32 LE payload len | uint32 LE CRC32(payload) | payload
//
// The payload opens with the parent's record position and CRC — the anchor's
// for the first frame, the previous frame's payload CRC after that — forming
// a hash chain: a segment copied beside the wrong full snapshot, or a frame
// spliced from another chain, fails the link check and applies nothing from
// that point on. A torn or bit-flipped tail degrades to the last consistent
// prefix, exactly like a WAL tail (internal/wal); the worst case loses the
// progress after the newest valid frame, never the chain before it.
import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/itemset"
)

// DeltaVersion is the delta-chain wire-format version.
const DeltaVersion = 2

// deltaMagic identifies a delta-chain segment file.
const deltaMagic = "BFLYCKD2"

// SegHeaderLen is the size of a chain segment's header: magic + uint32
// version + uint64 anchor records + uint32 anchor CRC. Frames start at this
// offset.
const SegHeaderLen = len(deltaMagic) + 4 + 8 + 4

// Delta is one incremental checkpoint: the difference between two
// consecutive generation cuts. Positions and counters are absolute values
// (not differences); only the window buffer and the publisher cache travel
// as change sets.
type Delta struct {
	// ParentRecords is the Records position of the chain predecessor — the
	// anchor full snapshot or the previous delta.
	ParentRecords uint64
	// Records, BadRecords and Published are the cut's absolute counters,
	// with the same meaning as the Snapshot fields.
	Records    uint64
	BadRecords uint64
	Published  uint64
	// Appended holds the well-formed records pushed into the sliding window
	// since the parent cut, oldest first. When more than a full window
	// arrived in the interval, only the last WindowSize survive (the rest
	// slid straight through), so len(Appended) never exceeds WindowSize.
	Appended []itemset.Itemset
	// Publisher is the perturbation-state change set.
	Publisher core.PublisherDelta
}

// EncodeDelta serializes d as one frame payload. parentCRC is the checksum
// of the chain predecessor (the anchor file's bytes, or the previous frame's
// payload), embedded so recovery can verify the link.
func EncodeDelta(d *Delta, parentCRC uint32) ([]byte, error) {
	return appendDelta(nil, d, parentCRC)
}

// appendDelta appends d's frame payload to b; b is untouched on error.
func appendDelta(b []byte, d *Delta, parentCRC uint32) ([]byte, error) {
	if d == nil {
		return nil, fmt.Errorf("checkpoint: nil delta")
	}
	if d.Records <= d.ParentRecords {
		return nil, fmt.Errorf("checkpoint: delta records %d not past parent %d", d.Records, d.ParentRecords)
	}
	p := &d.Publisher
	if !sortedStrictCache(p.Upserts) {
		return nil, fmt.Errorf("checkpoint: delta upserts not strictly sorted by key")
	}
	if !sortedStrict(p.Evicted) {
		return nil, fmt.Errorf("checkpoint: delta evictions not strictly sorted")
	}
	b = binary.AppendUvarint(b, d.ParentRecords)
	b = binary.LittleEndian.AppendUint32(b, parentCRC)
	b = binary.AppendUvarint(b, d.Records)
	b = binary.AppendUvarint(b, d.BadRecords)
	b = binary.AppendUvarint(b, d.Published)
	b = appendRecords(b, d.Appended)
	b = appendPublisher(b, p.Window, p.RNG)
	b = appendEntries(b, p.Upserts)
	b = binary.AppendUvarint(b, uint64(len(p.Evicted)))
	for _, k := range p.Evicted {
		b = frame.AppendString(b, k)
	}
	return b, nil
}

// DecodeDelta parses one frame payload, returning the delta and the embedded
// parent checksum. Like Decode it never panics: every malformation is an
// error wrapping ErrCorrupt. The decoded form is canonical — re-encoding it
// with the returned parent CRC reproduces the input bytes, except that a
// bias memo an earlier build wrote re-encodes as the empty memo block.
func DecodeDelta(payload []byte) (*Delta, uint32, error) {
	r := frame.NewReader(payload, ErrCorrupt)
	d := &Delta{ParentRecords: r.Uvarint()}
	parentCRC := r.Uint32()
	if d.Records = r.Uvarint(); d.Records <= d.ParentRecords {
		r.Fail("delta records %d not past parent %d", d.Records, d.ParentRecords)
	}
	d.BadRecords = r.Uvarint()
	d.Published = r.Uvarint()
	d.Appended = readRecords(r, "appended records")
	p := &d.Publisher
	p.Window, p.RNG = readPublisher(r)
	if p.Upserts = readEntries(r, "cache upserts"); !sortedStrictCache(p.Upserts) {
		r.Fail("upsert keys not strictly sorted")
	}
	p.Evicted = make([]string, r.Count("cache evictions"))
	for i := range p.Evicted {
		p.Evicted[i] = string(r.Bytes("evicted key"))
	}
	if !sortedStrict(p.Evicted) {
		r.Fail("evicted keys not strictly sorted")
	}
	if err := r.Done(); err != nil {
		return nil, 0, err
	}
	return d, parentCRC, nil
}

// ApplyDelta advances s by one delta: slides the window buffer, bumps the
// counters, and merges the publisher change set (evictions first, then
// upserts). It validates everything before mutating anything, so a failed
// apply leaves s exactly as it was — the chain replay relies on that to
// degrade to a consistent prefix.
func ApplyDelta(s *Snapshot, d *Delta) error {
	if s == nil || d == nil {
		return fmt.Errorf("checkpoint: nil snapshot or delta")
	}
	if d.ParentRecords != s.Records {
		return fmt.Errorf("%w: delta parent %d does not extend snapshot at %d", ErrCorrupt, d.ParentRecords, s.Records)
	}
	if d.Records <= s.Records || d.BadRecords < s.BadRecords || d.Published <= s.Published {
		return fmt.Errorf("%w: delta counters regress (records %d<=%d, bad %d<%d, or published %d<=%d)",
			ErrCorrupt, d.Records, s.Records, d.BadRecords, s.BadRecords, d.Published, s.Published)
	}
	w := s.Meta.WindowSize
	if len(d.Appended) > w {
		return fmt.Errorf("%w: %d appended records exceed window size %d", ErrCorrupt, len(d.Appended), w)
	}
	grew := d.Records - s.Records
	if grew < uint64(len(d.Appended)) || (grew > uint64(len(d.Appended)) && len(d.Appended) != w) {
		return fmt.Errorf("%w: %d appended records for a %d-record advance of window size %d",
			ErrCorrupt, len(d.Appended), grew, w)
	}
	p := &d.Publisher
	if p.Window < s.Publisher.Window {
		return fmt.Errorf("%w: publisher window counter regresses %d -> %d", ErrCorrupt, s.Publisher.Window, p.Window)
	}

	// All validated; commit.
	s.Records, s.BadRecords, s.Published = d.Records, d.BadRecords, d.Published
	s.Window = append(s.Window, d.Appended...)
	if len(s.Window) > w {
		n := copy(s.Window, s.Window[len(s.Window)-w:])
		s.Window = s.Window[:n]
	}
	ps := &s.Publisher
	ps.Window = p.Window
	ps.RNG = p.RNG
	if len(p.Upserts) > 0 || len(p.Evicted) > 0 {
		merged := make(map[string]core.CacheEntry, len(ps.Cache)+len(p.Upserts))
		for _, e := range ps.Cache {
			merged[e.Key] = e
		}
		for _, k := range p.Evicted {
			delete(merged, k)
		}
		for _, e := range p.Upserts {
			merged[e.Key] = e
		}
		ps.Cache = make([]core.CacheEntry, 0, len(merged))
		for _, e := range merged {
			ps.Cache = append(ps.Cache, e)
		}
		sort.Slice(ps.Cache, func(i, j int) bool { return ps.Cache[i].Key < ps.Cache[j].Key })
	}
	return nil
}

// appendSegmentHeader appends the segment header binding a chain to its
// anchor full snapshot.
func appendSegmentHeader(b []byte, anchorRecords uint64, anchorCRC uint32) []byte {
	b = append(b, deltaMagic...)
	b = binary.LittleEndian.AppendUint32(b, DeltaVersion)
	b = binary.LittleEndian.AppendUint64(b, anchorRecords)
	return binary.LittleEndian.AppendUint32(b, anchorCRC)
}

// ApplyChain replays a delta segment onto its anchor snapshot s, whose
// record position must be anchorRecords and whose file bytes must hash to
// anchorCRC. It returns the number of frames applied. Damage — a torn tail,
// a corrupt or truncated frame, a frame whose parent link does not match the
// state it would extend — stops the replay at the last consistent prefix;
// the reason is reported through warn (may be nil) and s reflects every
// frame before the damage, never a partial frame. A header that does not
// bind to the anchor applies nothing.
//
// ApplyChain never panics, whatever the segment bytes; the delta fuzz target
// drives it with arbitrary input.
func ApplyChain(s *Snapshot, seg []byte, anchorRecords uint64, anchorCRC uint32, warn func(format string, args ...any)) int {
	if warn == nil {
		warn = func(string, ...any) {}
	}
	if s == nil {
		return 0
	}
	if len(seg) < SegHeaderLen {
		warn("segment shorter than its %d-byte header (%d bytes)", SegHeaderLen, len(seg))
		return 0
	}
	if string(seg[:len(deltaMagic)]) != deltaMagic {
		warn("bad segment magic")
		return 0
	}
	if v := binary.LittleEndian.Uint32(seg[len(deltaMagic):]); v != DeltaVersion {
		warn("segment version %d, this build reads %d", v, DeltaVersion)
		return 0
	}
	hdrRecords := binary.LittleEndian.Uint64(seg[len(deltaMagic)+4:])
	hdrCRC := binary.LittleEndian.Uint32(seg[len(deltaMagic)+12:])
	if hdrRecords != anchorRecords || hdrCRC != anchorCRC {
		warn("segment anchored at records=%d crc=%08x, full snapshot is records=%d crc=%08x — cross-linked chain ignored",
			hdrRecords, hdrCRC, anchorRecords, anchorCRC)
		return 0
	}
	rest := seg[SegHeaderLen:]
	lastCRC := anchorCRC
	applied := 0
	for len(rest) > 0 {
		payload, sum, n, err := frame.Split(rest, 0, ErrCorrupt)
		if errors.Is(err, frame.ErrTorn) {
			warn("torn frame after %d applied frame(s): %v", applied, err)
			return applied
		}
		if err != nil {
			warn("frame %d: %v; keeping %d-frame prefix", applied+1, err, applied)
			return applied
		}
		d, parentCRC, err := DecodeDelta(payload)
		if err != nil {
			warn("frame %d undecodable (%v); keeping %d-frame prefix", applied+1, err, applied)
			return applied
		}
		if parentCRC != lastCRC || d.ParentRecords != s.Records {
			warn("frame %d parent link (records=%d crc=%08x) does not extend chain tip (records=%d crc=%08x); keeping %d-frame prefix",
				applied+1, d.ParentRecords, parentCRC, s.Records, lastCRC, applied)
			return applied
		}
		if err := ApplyDelta(s, d); err != nil {
			warn("frame %d inconsistent (%v); keeping %d-frame prefix", applied+1, err, applied)
			return applied
		}
		lastCRC = sum
		applied++
		rest = rest[n:]
	}
	return applied
}

func sortedStrictCache(es []core.CacheEntry) bool {
	for i := 1; i < len(es); i++ {
		if es[i-1].Key >= es[i].Key {
			return false
		}
	}
	return true
}

// sortedStrict reports whether keys is sorted with no duplicates.
func sortedStrict(keys []string) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return false
		}
	}
	return true
}
