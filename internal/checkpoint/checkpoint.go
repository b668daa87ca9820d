// Package checkpoint makes the streaming publication pipeline crash-safe:
// it serializes the state a resumed run needs — the source position, the
// sliding-window transaction buffer, and the full publisher state (window
// counter, RNG cursor, republication cache) — and manages a directory of
// checkpoint generations.
//
// The correctness bar is deterministic resume: a run killed at any
// checkpointed window boundary and restarted from the newest recoverable
// generation publishes the remaining windows byte-identically to an
// uninterrupted run. In particular a re-published window re-serves the SAME
// sanitized supports — the consistent-republication guarantee of §VI
// survives the crash, so an adversary cannot crash-loop the service to
// collect fresh perturbations and average the noise out.
//
// # On-disk formats
//
// A generation is either a FULL snapshot or a DELTA frame. Full snapshots
// (ckpt-%016d.bfck, named by record position so lexical order is stream
// order) use the version-1 format, frozen:
//
//	magic "BFLYCKPT" | uint32 LE version | payload | uint32 LE CRC32(IEEE)
//
// The checksum covers everything before it (magic, version, payload).
// Integers are varint-encoded (unsigned where the domain is non-negative,
// zigzag where it is not); itemsets are delta-encoded over their strictly
// increasing items. Both formats encode through internal/frame, the codec
// the ingest WAL shares.
//
// Delta frames (format version 2, see delta.go) live in an append-only
// chain segment (delta-%016d.bfdl) beside the full snapshot that anchors
// them. Each CRC-framed delta serializes only what changed since its parent
// — cache upserts/evictions, appended window records, the small always-hot
// scalars — and names the parent by record position and checksum, forming a
// hash chain rooted at the anchor file's bytes. `CheckpointFullEvery`
// compaction bounds chain length; version 1 remains the full-snapshot
// fallback every chain is rooted in.
//
// # Invariants
//
//   - Full saves are atomic: temp file, fsync, rename, directory fsync. A
//     crash at any instant leaves every earlier generation intact.
//   - Delta appends are one buffered write to an open segment; the chain
//     tail is synced when the next anchor supersedes it, on Close, or by OS
//     writeback. A torn, unsynced or corrupt tail degrades recovery to the
//     longest valid frame prefix (never a partial frame) — at worst the
//     bare anchor — exactly like internal/wal tails. Durability lives in
//     anchors (and the server's ingest WAL); frames bound replay.
//   - Decode and DecodeDelta never panic: torn, truncated, bit-flipped or
//     fabricated input surfaces as an error wrapping ErrCorrupt, and a
//     future-version header as one wrapping ErrVersion. Both formats are
//     canonical — decode then re-encode reproduces the input bytes — except
//     for a bias memo an earlier build wrote, which re-encodes empty (see
//     appendPublisher).
//   - Recovery (Store.LatestDetail) walks fulls newest-first, skipping
//     undecodable ones, then applies the chosen full's valid chain prefix.
//     One corrupt file costs at most one generation of progress.
//   - External truncation horizons (the server's ingest-WAL floor) may only
//     advance on FULL saves, to the anchor position: replaying a chain
//     after the next crash needs the anchor and every record after it.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/itemset"
)

// Version is the current wire-format version.
const Version = 1

// magic identifies a Butterfly checkpoint file.
const magic = "BFLYCKPT"

var (
	// ErrCorrupt marks a checkpoint file that failed structural validation:
	// bad magic, bad checksum, truncation, or inconsistent payload. The
	// store falls back to the previous generation on it.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrVersion marks a checkpoint written by a newer format version —
	// undecodable by this build, but not evidence of disk corruption.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
)

// Meta fingerprints the pipeline configuration a snapshot was taken under.
// Resume refuses a snapshot whose fingerprint differs from the running
// configuration: restoring an RNG cursor or republication cache into a
// differently-calibrated pipeline would silently break both determinism and
// the privacy guarantee.
type Meta struct {
	WindowSize  int
	Epsilon     float64
	Delta       float64
	MinSupport  int
	VulnSupport int
	Seed        uint64
	// Scheme is the bias scheme's Name(), parameters included.
	Scheme     string
	ClosedOnly bool
	Raw        bool
	// Chunked marks a snapshot drawn in the chunked perturbation order,
	// the only order there is: every snapshot this build writes sets it.
	// False marks an older build's workers=1 snapshot, drawn in a retired
	// sequential order, which resume refuses (pipeline.ErrRetiredDrawOrder).
	Chunked      bool
	PublishEvery int
}

// Snapshot is one consistent cut of the pipeline at a published window
// boundary: the window has been mined, perturbed AND delivered, and no
// later record has influenced any of the captured state.
type Snapshot struct {
	Meta Meta
	// Records is the number of well-formed records consumed from the
	// source up to and including the snapshot window's last record.
	Records uint64
	// BadRecords is the number of malformed records skipped so far.
	BadRecords uint64
	// Published is the number of windows delivered so far.
	Published uint64
	// Window is the sliding-window transaction buffer, oldest first.
	Window []itemset.Itemset
	// Publisher is the perturbation state (see core.PublisherState).
	Publisher core.PublisherState
}

// Encode serializes s in the version-1 format.
func Encode(s *Snapshot) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("checkpoint: nil snapshot")
	}
	b := []byte(magic)
	b = binary.LittleEndian.AppendUint32(b, Version)
	b = appendMeta(b, s.Meta)
	b = binary.AppendUvarint(b, s.Records)
	b = binary.AppendUvarint(b, s.BadRecords)
	b = binary.AppendUvarint(b, s.Published)
	b = appendRecords(b, s.Window)
	st := &s.Publisher
	b = appendPublisher(b, st.Window, st.RNG)
	b = appendEntries(b, st.Cache)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// Decode parses an encoded snapshot, validating magic, version and checksum
// before touching the payload. Any malformation is an error wrapping
// ErrCorrupt (or ErrVersion for a future-version header); Decode never
// panics, whatever the bytes.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+4+4 {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the fixed header", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, sum)
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != Version {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, v, Version)
	}
	r := frame.NewReader(body[len(magic)+4:], ErrCorrupt)
	s := &Snapshot{Meta: readMeta(r)}
	s.Records = r.Uvarint()
	s.BadRecords = r.Uvarint()
	s.Published = r.Uvarint()
	s.Window = readRecords(r, "window records")
	st := &s.Publisher
	st.Window, st.RNG = readPublisher(r)
	st.Cache = readEntries(r, "cache entries")
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// The payload parts below are shared by both formats where they carry the
// same data: a full snapshot's window buffer and a delta's appended records
// are one record list, and both write the publisher scalars and a
// cache-entry list (the whole cache, or the upserts) in identical bytes.

func appendMeta(b []byte, m Meta) []byte {
	b = binary.AppendVarint(b, int64(m.WindowSize))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Epsilon))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Delta))
	b = binary.AppendVarint(b, int64(m.MinSupport))
	b = binary.AppendVarint(b, int64(m.VulnSupport))
	b = binary.LittleEndian.AppendUint64(b, m.Seed)
	b = frame.AppendString(b, m.Scheme)
	b = appendBool(b, m.ClosedOnly)
	b = appendBool(b, m.Raw)
	b = appendBool(b, m.Chunked)
	return binary.AppendVarint(b, int64(m.PublishEvery))
}

// readMeta reads the fields appendMeta wrote, in the same order: Go
// evaluates the calls in a composite literal left to right.
func readMeta(r *frame.Reader) Meta {
	return Meta{
		WindowSize:   r.Int("window size", 0, math.MaxInt32),
		Epsilon:      math.Float64frombits(r.Uint64()),
		Delta:        math.Float64frombits(r.Uint64()),
		MinSupport:   r.Int("min support", 0, math.MaxInt32),
		VulnSupport:  r.Int("vulnerable support", 0, math.MaxInt32),
		Seed:         r.Uint64(),
		Scheme:       string(r.Bytes("scheme name")),
		ClosedOnly:   readBool(r),
		Raw:          readBool(r),
		Chunked:      readBool(r),
		PublishEvery: r.Int("publish interval", 0, math.MaxInt32),
	}
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func readBool(r *frame.Reader) bool {
	v := r.Byte()
	if v > 1 {
		r.Fail("bool byte %d", v)
	}
	return v == 1
}

// appendRecords writes a record list: its length, then each record as a
// delta-encoded itemset.
func appendRecords(b []byte, recs []itemset.Itemset) []byte {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for _, rec := range recs {
		b = frame.AppendItems(b, rec.Items())
	}
	return b
}

func readRecords(r *frame.Reader, what string) []itemset.Itemset {
	recs := make([]itemset.Itemset, r.Count(what))
	for i := range recs {
		// ReadItems yields a strictly increasing list, the FromSorted
		// precondition, by construction.
		recs[i] = itemset.FromSorted(frame.ReadItems[itemset.Item](r, true))
	}
	return recs
}

// appendPublisher writes the publisher's window counter and RNG cursor, then
// an empty memo block: a zero bias-reuse counter, no ladder rungs and no
// biases. Earlier builds kept a cross-window bias memo there; the block
// stays, so the format version stays and their readers accept these bytes.
func appendPublisher(b []byte, window int, rng uint64) []byte {
	b = binary.AppendVarint(b, int64(window))
	b = binary.LittleEndian.AppendUint64(b, rng)
	return append(b, 0, 0, 0)
}

// readPublisher reads what appendPublisher wrote. A memo block an earlier
// build wrote is checked as strictly as that build checked it — it is bytes
// from outside the program — and dropped: the biases are recomputed every
// window, so it holds nothing a publisher needs.
func readPublisher(r *frame.Reader) (window int, rng uint64) {
	window = r.Int("publisher window counter", 0, math.MaxInt32)
	rng = r.Uint64()
	r.Int("bias reuse counter", 0, math.MaxInt32)
	rungs := r.Count("ladder rungs")
	for range rungs {
		r.Int("rung support", 0, math.MaxInt32)
		r.Int("rung size", 0, math.MaxInt32)
	}
	if biases := r.Count("biases"); biases != rungs {
		r.Fail("%d biases for %d ladder rungs", biases, rungs)
	}
	for range rungs {
		r.Int("bias", math.MinInt32, math.MaxInt32)
	}
	return window, rng
}

// appendEntries writes a republication-cache entry list.
func appendEntries(b []byte, es []core.CacheEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(es)))
	for _, e := range es {
		b = frame.AppendString(b, e.Key)
		b = binary.AppendVarint(b, int64(e.TrueSupport))
		b = binary.AppendVarint(b, int64(e.Sanitized))
		b = binary.AppendVarint(b, int64(e.LastSeen))
	}
	return b
}

func readEntries(r *frame.Reader, what string) []core.CacheEntry {
	es := make([]core.CacheEntry, r.Count(what))
	for i := range es {
		es[i] = core.CacheEntry{
			Key:         string(r.Bytes("cache key")),
			TrueSupport: r.Int("cached true support", 0, math.MaxInt32),
			Sanitized:   r.Int("sanitized support", math.MinInt32, math.MaxInt32),
			LastSeen:    r.Int("cache last-seen window", 0, math.MaxInt32),
		}
	}
	return es
}
