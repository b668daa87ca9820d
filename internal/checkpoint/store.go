package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/frame"
)

// Crash points of the write protocol, consulted through Store.CrashHook so
// the fault-injection suite can simulate a process death at each stage.
// They are part of the store's tested contract:
//
//   - CrashBeforeWrite: nothing has touched the disk; every existing
//     generation is intact. (Fires for both full saves and delta appends.)
//   - CrashBeforeRename: the temp file is fully written and synced but the
//     atomic rename never happened; recovery ignores the orphan. (Full
//     saves only — delta appends have no rename step.)
//   - CrashTornWrite: simulates a filesystem without atomic rename — a
//     torn half-snapshot lands under the FINAL generation name; recovery
//     must detect it by checksum and fall back a generation.
//   - CrashTornDelta: the process dies mid-append — half a delta frame
//     lands at the tail of the chain segment; recovery must degrade to the
//     frames before it.
const (
	CrashBeforeWrite  = "before-write"
	CrashBeforeRename = "before-rename"
	CrashTornWrite    = "torn-write"
	CrashTornDelta    = "torn-delta"
)

// ErrInjectedCrash is returned by Save when the CrashHook fired: the test
// harness's stand-in for the process dying mid-protocol.
var ErrInjectedCrash = errors.New("checkpoint: injected crash")

// DefaultKeep is how many snapshot generations a store retains when the
// caller does not say otherwise.
const DefaultKeep = 3

// patterns match generation and delta-segment files; the zero-padded record
// position makes lexical order equal stream order. A chain segment shares
// its anchor full snapshot's record position.
const (
	genFormat   = "ckpt-%016d.bfck"
	genGlob     = "ckpt-*.bfck"
	deltaFormat = "delta-%016d.bfdl"
	deltaGlob   = "delta-*.bfdl"
)

// Saved describes one durably-persisted checkpoint generation — the payload
// of the Store.OnSave notification. Full distinguishes anchor full
// snapshots from delta frames: only a full snapshot may advance external
// truncation horizons (the server's WAL floor), because chain recovery
// needs every record after the newest full's position.
type Saved struct {
	// Records and BadRecords are the persisted cut's stream counters, with
	// the same meaning as the Snapshot fields.
	Records    uint64
	BadRecords uint64
	// Full is true for an anchor full snapshot, false for a delta frame.
	Full bool
}

// chainState tracks the delta chain rooted at the most recent full save.
type chainState struct {
	open        bool     // a full snapshot anchored a chain this process can extend
	anchor      uint64   // anchor full snapshot's Records position
	anchorCRC   uint32   // CRC32 of the anchor file's complete bytes
	lastCRC     uint32   // CRC32 of the chain tip (anchor file or last frame payload)
	lastRecords uint64   // Records position of the chain tip
	frames      int      // frames appended since the anchor
	dirty       bool     // frames written since the last datasync
	path        string   // segment file path
	f           *os.File // open segment file, created lazily on first append
}

// Store manages a directory of checkpoint generations: full snapshots,
// atomically written (temp file, fsync, rename, directory fsync) and pruned
// to the last keep generations, plus one append-only delta-chain segment
// beside each full (see delta.go). Loads walk full snapshots newest-first,
// skipping any that fails validation, then extend the chosen full with its
// chain's longest valid frame prefix — one corrupt file costs at most one
// generation of progress, never the run.
//
// Store is used from a single goroutine (the pipeline's emit stage), like
// the sources and sinks around it.
type Store struct {
	dir  string
	keep int

	// Logf, when non-nil, receives warnings the store absorbs — a corrupt
	// generation skipped during recovery, an unprunable stale file. The
	// CLI points it at stderr; tests capture it.
	Logf func(format string, args ...any)

	// CrashHook, when non-nil, is consulted with each crash point and the
	// 1-based save number; returning true simulates a process crash there
	// (see the CrashBefore*/CrashTorn constants). Test-only, like
	// core.Publisher's chunkHook. Save and AppendDelta share the save
	// counter, so a crash plan addresses a generation regardless of kind.
	CrashHook func(point string, save int) bool

	// OnSave, when non-nil, is called after each successfully persisted
	// generation — full or delta — with its stream position. It is the
	// durability notification the multi-stream server uses to prune replay
	// buffers and advance WAL truncation. It runs on the saving goroutine
	// (the pipeline's emit stage), after the write protocol has completed.
	OnSave func(sv Saved)

	saves         int
	chain         chainState
	frameBuf      []byte // reusable append buffer for header+frame bytes
	lastSaveBytes int
	stats         IOStats
}

// IOStats counts the disk work a Store has issued since NewStore. Every
// count is decided by the code — how many generations are full, how often a
// chain is synced — not by the disk, so equal runs count equal work.
type IOStats struct {
	// DataSyncs counts fdatasync calls: one per full snapshot written, and
	// one per delta chain tail synced when it is superseded or closed.
	DataSyncs int
	// DirSyncs counts directory fsyncs: one per full snapshot published and
	// one per chain segment created.
	DirSyncs int
	// Bytes counts the snapshot and chain-segment bytes written.
	Bytes int64
}

// IOStats returns the disk work the store has issued so far.
func (st *Store) IOStats() IOStats { return st.stats }

// NewStore opens (creating if needed) a checkpoint directory retaining the
// last keep generations; keep <= 0 selects DefaultKeep.
func NewStore(dir string, keep int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty store directory")
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating store: %w", err)
	}
	return &Store{dir: dir, keep: keep}, nil
}

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) logf(format string, args ...any) {
	if st.Logf != nil {
		st.Logf(format, args...)
	}
}

func (st *Store) crash(point string) bool {
	return st.CrashHook != nil && st.CrashHook(point, st.saves)
}

// Save atomically persists s as the generation named by its record
// position, then prunes generations beyond the retention limit. A snapshot
// is only visible under its final name once fully written and synced; a
// crash at any point of the protocol leaves every earlier generation
// intact.
func (st *Store) Save(s *Snapshot) error {
	st.saves++
	if st.crash(CrashBeforeWrite) {
		return fmt.Errorf("%w: at %s", ErrInjectedCrash, CrashBeforeWrite)
	}
	// Retire the current chain before anything can go wrong with the new
	// full: closeChain syncs its unsynced tail, so if this save dies midway
	// the chain it was about to supersede is durable to its tip.
	st.closeChain()
	data, err := Encode(s)
	if err != nil {
		return err
	}
	final := filepath.Join(st.dir, fmt.Sprintf(genFormat, s.Records))
	if st.crash(CrashTornWrite) {
		// Simulated non-atomic filesystem: half a snapshot lands under the
		// final name. Recovery must catch it by checksum.
		if err := st.writeFileSync(final, data[:len(data)/2]); err != nil {
			return err
		}
		return fmt.Errorf("%w: at %s", ErrInjectedCrash, CrashTornWrite)
	}
	tmp := final + ".tmp"
	if err := st.writeFileSync(tmp, data); err != nil {
		return err
	}
	if st.crash(CrashBeforeRename) {
		return fmt.Errorf("%w: at %s", ErrInjectedCrash, CrashBeforeRename)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("checkpoint: publishing snapshot: %w", err)
	}
	st.syncDir()
	// The fresh full anchors a fresh, empty chain. A re-saved full at a
	// position an older incarnation also checkpointed may have left a stale
	// chain segment beside it; appending to it would splice two runs, so it
	// is removed up front.
	seg := st.segmentPath(s.Records)
	if err := os.Remove(seg); err != nil && !os.IsNotExist(err) {
		st.logf("checkpoint: removing stale delta segment %s: %v", seg, err)
	}
	crc := crc32.ChecksumIEEE(data)
	st.chain = chainState{
		open:        true,
		anchor:      s.Records,
		anchorCRC:   crc,
		lastCRC:     crc,
		lastRecords: s.Records,
		path:        seg,
	}
	st.lastSaveBytes = len(data)
	st.prune()
	if st.OnSave != nil {
		st.OnSave(Saved{Records: s.Records, BadRecords: s.BadRecords, Full: true})
	}
	return nil
}

// AppendDelta appends one delta frame to the chain rooted at the most
// recent full Save of this process. The common case costs one buffered
// write to an already-open file — no temp file, rename, directory fsync,
// prune, or even a per-frame sync — which is what makes tight checkpoint
// intervals affordable.
//
// Frames are deliberately NOT individually durable. A chain is synced when
// it is superseded by the next anchor full snapshot, on Close (graceful
// shutdown), or whenever the OS writes back — so a kill -9 between anchors
// may lose the unsynced frame suffix. That is safe by construction: each
// frame embeds its parent's position and checksum, so recovery keeps the
// longest valid prefix (at worst the bare anchor) and the pipeline replays
// the difference, re-publishing byte-identical windows. In the daemon the
// ingest WAL is truncated only up to the newest FULL snapshot, so every
// record a lost frame summarized is still replayable. Durability lives in
// anchors and the WAL; frames are a replay bound.
func (st *Store) AppendDelta(d *Delta) error {
	st.saves++
	if st.crash(CrashBeforeWrite) {
		return fmt.Errorf("%w: at %s", ErrInjectedCrash, CrashBeforeWrite)
	}
	if !st.chain.open {
		return fmt.Errorf("checkpoint: delta append without an anchor full snapshot")
	}
	if d == nil {
		return fmt.Errorf("checkpoint: nil delta")
	}
	if d.ParentRecords != st.chain.lastRecords {
		return fmt.Errorf("checkpoint: delta parent %d does not extend chain tip %d",
			d.ParentRecords, st.chain.lastRecords)
	}
	buf := st.frameBuf[:0]
	created := st.chain.f == nil
	if created {
		buf = appendSegmentHeader(buf, st.chain.anchor, st.chain.anchorCRC)
	}
	frameStart := len(buf)
	buf, err := appendDelta(frame.Begin(buf), d, st.chain.lastCRC)
	if err != nil {
		return err
	}
	sum := frame.Seal(buf, frameStart)
	st.frameBuf = buf
	if created {
		f, err := os.OpenFile(st.chain.path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("checkpoint: creating %s: %w", st.chain.path, err)
		}
		st.chain.f = f
	}
	if st.crash(CrashTornDelta) {
		// Simulated death mid-append: the header and half the frame reach
		// the disk. Recovery must keep the frames before it.
		torn := buf[:frameStart+(len(buf)-frameStart)/2]
		st.chain.f.Write(torn)
		st.datasync(st.chain.f)
		st.closeChain()
		return fmt.Errorf("%w: at %s", ErrInjectedCrash, CrashTornDelta)
	}
	if _, err := st.chain.f.Write(buf); err != nil {
		return fmt.Errorf("checkpoint: appending to %s: %w", st.chain.path, err)
	}
	st.stats.Bytes += int64(len(buf))
	st.chain.dirty = true
	if created {
		st.syncDir()
	}
	st.chain.lastCRC = sum
	st.chain.lastRecords = d.Records
	st.chain.frames++
	st.lastSaveBytes = len(buf)
	if st.OnSave != nil {
		st.OnSave(Saved{Records: d.Records, BadRecords: d.BadRecords, Full: false})
	}
	return nil
}

// LastSaveBytes reports the bytes written by the most recent successful
// Save or AppendDelta (metrics).
func (st *Store) LastSaveBytes() int { return st.lastSaveBytes }

// ChainFrames reports the delta frames appended to the current chain since
// its anchor full snapshot (metrics; zero right after a full save).
func (st *Store) ChainFrames() int { return st.chain.frames }

// segmentPath returns the chain-segment path for the full snapshot at the
// given record position.
func (st *Store) segmentPath(records uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf(deltaFormat, records))
}

// closeChain flushes any unsynced frames, releases the open segment file
// and forgets the chain; the next full Save starts a fresh one. The sync
// here is what makes a graceful shutdown's chain tip durable — frame
// appends themselves only buffer (see AppendDelta).
func (st *Store) closeChain() error {
	var err error
	if st.chain.f != nil {
		if st.chain.dirty {
			err = st.datasync(st.chain.f)
		}
		if cerr := st.chain.f.Close(); err == nil {
			err = cerr
		}
	}
	st.chain = chainState{}
	return err
}

// Close releases the open delta-segment file, if any, syncing its tail
// first. The store remains usable; the next full Save anchors a fresh
// chain.
func (st *Store) Close() error { return st.closeChain() }

// Wipe removes every generation and delta segment from the store directory
// — the reset a fresh (non-resuming) stream create performs on an inherited
// directory.
func (st *Store) Wipe() error {
	st.closeChain()
	for _, glob := range []string{genGlob, deltaGlob} {
		paths, err := filepath.Glob(filepath.Join(st.dir, glob))
		if err != nil {
			return fmt.Errorf("checkpoint: listing store: %w", err)
		}
		for _, p := range paths {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("checkpoint: wiping %s: %w", p, err)
			}
		}
	}
	return nil
}

// AtomicWrite writes data to path with the store's crash discipline — temp
// file, fsync, rename, directory fsync — so a reader never observes a
// partially-written file under the final name, whatever instant the process
// dies. The multi-stream server uses it for its stream manifest.
func AtomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("checkpoint: publishing %s: %w", path, err)
	}
	frame.SyncDir(filepath.Dir(path))
	return nil
}

// writeFileSync writes data and syncs before closing, so a rename never
// publishes bytes the disk has not accepted. Data-only sync suffices: the
// file is still the unlinked temp name here, and the rename that makes it
// reachable is made durable by the directory fsync that follows it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: creating %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: writing %s: %w", path, err)
	}
	if err := datasync(f); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", path, err)
	}
	return nil
}

// writeFileSync, datasync and syncDir issue the store's disk work and count
// it in IOStats.

func (st *Store) writeFileSync(path string, data []byte) error {
	if err := writeFileSync(path, data); err != nil {
		return err
	}
	st.stats.DataSyncs++
	st.stats.Bytes += int64(len(data))
	return nil
}

func (st *Store) datasync(f *os.File) error {
	st.stats.DataSyncs++
	return datasync(f)
}

func (st *Store) syncDir() {
	st.stats.DirSyncs++
	frame.SyncDir(st.dir)
}

// Generations returns the generation files present, oldest first (lexical
// = stream order). Orphaned temp files are excluded.
func (st *Store) Generations() ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(st.dir, genGlob))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: listing store: %w", err)
	}
	sort.Strings(paths)
	return paths, nil
}

// prune removes the oldest full generations beyond the retention limit,
// each with its chain segment, then sweeps orphan segments — a chain whose
// anchor full snapshot is gone can never be applied.
func (st *Store) prune() {
	gens, err := st.Generations()
	if err != nil {
		st.logf("checkpoint: pruning: %v", err)
		return
	}
	for len(gens) > st.keep {
		if err := os.Remove(gens[0]); err != nil {
			st.logf("checkpoint: pruning %s: %v", gens[0], err)
			return
		}
		if rec, ok := genRecords(gens[0], "ckpt-", ".bfck"); ok {
			if err := os.Remove(st.segmentPath(rec)); err != nil && !os.IsNotExist(err) {
				st.logf("checkpoint: pruning delta segment for %s: %v", gens[0], err)
			}
		}
		gens = gens[1:]
	}
	keep := make(map[uint64]bool, len(gens))
	for _, g := range gens {
		if rec, ok := genRecords(g, "ckpt-", ".bfck"); ok {
			keep[rec] = true
		}
	}
	segs, err := filepath.Glob(filepath.Join(st.dir, deltaGlob))
	if err != nil {
		st.logf("checkpoint: listing delta segments: %v", err)
		return
	}
	for _, seg := range segs {
		rec, ok := genRecords(seg, "delta-", ".bfdl")
		if !ok || keep[rec] {
			continue
		}
		if err := os.Remove(seg); err != nil && !os.IsNotExist(err) {
			st.logf("checkpoint: sweeping orphan delta segment %s: %v", seg, err)
		}
	}
}

// genRecords extracts the record position encoded in a generation or
// segment file name.
func genRecords(path, prefix, suffix string) (uint64, bool) {
	base := filepath.Base(path)
	if len(base) <= len(prefix)+len(suffix) ||
		base[:len(prefix)] != prefix || base[len(base)-len(suffix):] != suffix {
		return 0, false
	}
	var rec uint64
	for _, c := range base[len(prefix) : len(base)-len(suffix)] {
		if c < '0' || c > '9' {
			return 0, false
		}
		rec = rec*10 + uint64(c-'0')
	}
	return rec, true
}

// Load reads and validates one generation file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading %s: %w", path, err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return s, nil
}

// ChainDetail describes where a recovered snapshot came from: the anchor
// full generation, its stream position, and how many delta frames extended
// it. External truncation horizons (the server's WAL floor) must use the
// ANCHOR position, not the recovered snapshot's — replaying the chain again
// after another crash needs the anchor intact, and re-building lost delta
// progress needs the records after it.
type ChainDetail struct {
	// Path is the anchor full-snapshot generation file.
	Path string
	// AnchorRecords and AnchorBadRecords are the anchor's stream counters.
	AnchorRecords    uint64
	AnchorBadRecords uint64
	// Frames is how many delta frames were applied on top of the anchor.
	Frames int
	// LoadDur is the wall time spent reading and decoding the anchor full
	// snapshot; ChainApplyDur is the wall time spent reading the delta
	// segment and replaying its frames. Together they are the "restore the
	// state" half of a boot recovery (WAL replay is the other half), the
	// numbers that tune CheckpointFullEvery.
	LoadDur       time.Duration
	ChainApplyDur time.Duration
}

// Latest returns the newest recoverable snapshot and the path of its anchor
// generation. See LatestDetail.
func (st *Store) Latest() (*Snapshot, string, error) {
	s, det, err := st.LatestDetail()
	return s, det.Path, err
}

// LatestDetail returns the newest recoverable snapshot: the newest decodable
// full generation, extended by the longest valid frame prefix of its delta
// chain. Corrupt, torn or future-version fulls are skipped with a logged
// warning; chain damage degrades to the frames before it (or the bare
// anchor) — the fallbacks that bound the damage of a crash mid-write to one
// checkpoint interval of progress. A store with no usable snapshot returns
// (nil, ChainDetail{}, nil); only an unreadable directory is an error.
func (st *Store) LatestDetail() (*Snapshot, ChainDetail, error) {
	gens, err := st.Generations()
	if err != nil {
		return nil, ChainDetail{}, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		loadStart := time.Now()
		data, err := os.ReadFile(gens[i])
		if err != nil {
			st.logf("checkpoint: skipping unreadable generation %s: %v", gens[i], err)
			continue
		}
		s, err := Decode(data)
		if err != nil {
			st.logf("checkpoint: skipping unusable generation %s: %v", gens[i], err)
			continue
		}
		det := ChainDetail{
			Path:             gens[i],
			AnchorRecords:    s.Records,
			AnchorBadRecords: s.BadRecords,
			LoadDur:          time.Since(loadStart),
		}
		segPath := st.segmentPath(s.Records)
		applyStart := time.Now()
		if seg, err := os.ReadFile(segPath); err == nil {
			det.Frames = ApplyChain(s, seg, det.AnchorRecords, crc32.ChecksumIEEE(data),
				func(format string, args ...any) {
					st.logf("checkpoint: delta chain %s: "+format, append([]any{segPath}, args...)...)
				})
			det.ChainApplyDur = time.Since(applyStart)
		} else if !os.IsNotExist(err) {
			st.logf("checkpoint: reading delta segment %s: %v", segPath, err)
		}
		return s, det, nil
	}
	return nil, ChainDetail{}, nil
}
