// Package checkpoint makes the streaming publication pipeline crash-safe:
// it serializes the state a resumed run needs — the source position, the
// sliding-window transaction buffer, and the full publisher state (window
// counter, RNG cursor, republication cache, incremental-bias memo) — and
// manages a directory of checkpoint generations.
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
// increasing items.
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
//     canonical — decode then re-encode reproduces the input bytes.
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
	b = binary.AppendUvarint(b, uint64(len(s.Window)))
	for _, rec := range s.Window {
		b = appendItemset(b, rec)
	}
	b = appendPublisher(b, &s.Publisher)
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
	r := &reader{b: body[len(magic)+4:]}
	s := &Snapshot{}
	var err error
	if s.Meta, err = r.meta(); err != nil {
		return nil, err
	}
	if s.Records, err = r.uvarint(); err != nil {
		return nil, err
	}
	if s.BadRecords, err = r.uvarint(); err != nil {
		return nil, err
	}
	if s.Published, err = r.uvarint(); err != nil {
		return nil, err
	}
	n, err := r.count("window records")
	if err != nil {
		return nil, err
	}
	s.Window = make([]itemset.Itemset, n)
	for i := range s.Window {
		if s.Window[i], err = r.itemset(); err != nil {
			return nil, err
		}
	}
	if err := r.publisher(&s.Publisher); err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, r.remaining())
	}
	return s, nil
}

// ---- encoding helpers ----

func appendMeta(b []byte, m Meta) []byte {
	b = binary.AppendVarint(b, int64(m.WindowSize))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Epsilon))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Delta))
	b = binary.AppendVarint(b, int64(m.MinSupport))
	b = binary.AppendVarint(b, int64(m.VulnSupport))
	b = binary.LittleEndian.AppendUint64(b, m.Seed)
	b = appendString(b, m.Scheme)
	b = appendBool(b, m.ClosedOnly)
	b = appendBool(b, m.Raw)
	b = appendBool(b, m.Chunked)
	return binary.AppendVarint(b, int64(m.PublishEvery))
}

// appendItemset delta-encodes a canonical (strictly increasing) itemset:
// the first item verbatim, every later item as (gap-1) from its
// predecessor. Decoding therefore reconstructs a strictly increasing
// sequence by construction or fails.
func appendItemset(b []byte, s itemset.Itemset) []byte {
	items := s.Items()
	b = binary.AppendUvarint(b, uint64(len(items)))
	prev := int64(-1)
	for _, it := range items {
		b = binary.AppendUvarint(b, uint64(int64(it)-prev-1))
		prev = int64(it)
	}
	return b
}

func appendPublisher(b []byte, st *core.PublisherState) []byte {
	b = binary.AppendVarint(b, int64(st.Window))
	b = binary.LittleEndian.AppendUint64(b, st.RNG)
	b = binary.AppendVarint(b, int64(st.BiasReuses))
	b = binary.AppendUvarint(b, uint64(len(st.Ladder)))
	for _, r := range st.Ladder {
		b = binary.AppendVarint(b, int64(r.Support))
		b = binary.AppendVarint(b, int64(r.Size))
	}
	b = binary.AppendUvarint(b, uint64(len(st.Biases)))
	for _, bias := range st.Biases {
		b = binary.AppendVarint(b, int64(bias))
	}
	b = binary.AppendUvarint(b, uint64(len(st.Cache)))
	for _, e := range st.Cache {
		b = appendString(b, e.Key)
		b = binary.AppendVarint(b, int64(e.TrueSupport))
		b = binary.AppendVarint(b, int64(e.Sanitized))
		b = binary.AppendVarint(b, int64(e.LastSeen))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ---- decoding helpers ----

// reader is a panic-free cursor over the payload. Every length and count is
// validated against the remaining byte budget BEFORE allocation, so a
// fabricated header cannot make Decode allocate gigabytes.
type reader struct {
	b   []byte
	off int
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated uvarint at offset %d", ErrCorrupt, r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at offset %d", ErrCorrupt, r.off)
	}
	r.off += n
	return v, nil
}

// vint decodes a varint that must fit a non-negative int.
func (r *reader) vint(what string) (int, error) {
	v, err := r.varint()
	if err != nil {
		return 0, err
	}
	if v < 0 || v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: %s %d out of range", ErrCorrupt, what, v)
	}
	return int(v), nil
}

// count decodes an element count, rejecting any value larger than the
// remaining payload (every element takes at least one byte).
func (r *reader) count(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()) {
		return 0, fmt.Errorf("%w: %s count %d exceeds %d remaining bytes",
			ErrCorrupt, what, v, r.remaining())
	}
	return int(v), nil
}

func (r *reader) uint32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("%w: truncated u32 at offset %d", ErrCorrupt, r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) uint64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated u64 at offset %d", ErrCorrupt, r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) float64() (float64, error) {
	v, err := r.uint64()
	return math.Float64frombits(v), err
}

func (r *reader) str(what string) (string, error) {
	n, err := r.count(what)
	if err != nil {
		return "", err
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s, nil
}

func (r *reader) bool() (bool, error) {
	if r.remaining() < 1 {
		return false, fmt.Errorf("%w: truncated bool at offset %d", ErrCorrupt, r.off)
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		return false, fmt.Errorf("%w: bool byte %d", ErrCorrupt, v)
	}
	return v == 1, nil
}

func (r *reader) meta() (Meta, error) {
	var m Meta
	var err error
	if m.WindowSize, err = r.vint("window size"); err != nil {
		return m, err
	}
	if m.Epsilon, err = r.float64(); err != nil {
		return m, err
	}
	if m.Delta, err = r.float64(); err != nil {
		return m, err
	}
	if m.MinSupport, err = r.vint("min support"); err != nil {
		return m, err
	}
	if m.VulnSupport, err = r.vint("vulnerable support"); err != nil {
		return m, err
	}
	if m.Seed, err = r.uint64(); err != nil {
		return m, err
	}
	if m.Scheme, err = r.str("scheme name"); err != nil {
		return m, err
	}
	if m.ClosedOnly, err = r.bool(); err != nil {
		return m, err
	}
	if m.Raw, err = r.bool(); err != nil {
		return m, err
	}
	if m.Chunked, err = r.bool(); err != nil {
		return m, err
	}
	if m.PublishEvery, err = r.vint("publish interval"); err != nil {
		return m, err
	}
	return m, nil
}

func (r *reader) itemset() (itemset.Itemset, error) {
	n, err := r.count("itemset items")
	if err != nil {
		return itemset.Itemset{}, err
	}
	items := make([]itemset.Item, n)
	prev := int64(-1)
	for i := range items {
		gap, err := r.uvarint()
		if err != nil {
			return itemset.Itemset{}, err
		}
		v := prev + 1 + int64(gap)
		if v > math.MaxInt32 {
			return itemset.Itemset{}, fmt.Errorf("%w: item id %d overflows", ErrCorrupt, v)
		}
		items[i] = itemset.Item(v)
		prev = v
	}
	// The delta decoding above yields a strictly increasing sequence, the
	// FromSorted precondition, by construction.
	return itemset.FromSorted(items), nil
}

func (r *reader) publisher(st *core.PublisherState) error {
	var err error
	if st.Window, err = r.vint("publisher window counter"); err != nil {
		return err
	}
	if st.RNG, err = r.uint64(); err != nil {
		return err
	}
	if st.BiasReuses, err = r.vint("bias reuse counter"); err != nil {
		return err
	}
	rungs, err := r.count("ladder rungs")
	if err != nil {
		return err
	}
	st.Ladder = make([]core.LadderRung, rungs)
	for i := range st.Ladder {
		if st.Ladder[i].Support, err = r.vint("rung support"); err != nil {
			return err
		}
		if st.Ladder[i].Size, err = r.vint("rung size"); err != nil {
			return err
		}
	}
	biases, err := r.count("biases")
	if err != nil {
		return err
	}
	st.Biases = make([]int, biases)
	for i := range st.Biases {
		v, err := r.varint()
		if err != nil {
			return err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return fmt.Errorf("%w: bias %d out of range", ErrCorrupt, v)
		}
		st.Biases[i] = int(v)
	}
	if len(st.Biases) != len(st.Ladder) {
		return fmt.Errorf("%w: %d biases for %d ladder rungs", ErrCorrupt, len(st.Biases), len(st.Ladder))
	}
	entries, err := r.count("cache entries")
	if err != nil {
		return err
	}
	st.Cache = make([]core.CacheEntry, entries)
	for i := range st.Cache {
		e := &st.Cache[i]
		if e.Key, err = r.str("cache key"); err != nil {
			return err
		}
		if e.TrueSupport, err = r.vint("cached true support"); err != nil {
			return err
		}
		v, err := r.varint()
		if err != nil {
			return err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return fmt.Errorf("%w: sanitized support %d out of range", ErrCorrupt, v)
		}
		e.Sanitized = int(v)
		if e.LastSeen, err = r.vint("cache last-seen window"); err != nil {
			return err
		}
	}
	return nil
}
