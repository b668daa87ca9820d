package server

// Boot-time recovery: Recover rebuilds the whole stream registry from the
// durable state a previous process left behind — the stream manifest, each
// stream's checkpoint generations, its ingest WAL, and its token journal.
// The contract it restores is "accepted == durable": every line a client
// got a 2xx for before the kill -9 is either inside the newest usable
// checkpoint or replayed from the WAL tail, and the windows published
// after recovery are byte-identical to the ones an uninterrupted run would
// have published (the recovery differential suite pins this at every crash
// point).
//
// Trust order: the manifest is authoritative for which streams exist — a
// directory it does not mention is an orphan (a crash between manifest
// removal and directory removal) and is swept; a manifest that cannot be
// parsed aborts recovery entirely rather than guessing. Within a stream,
// the newest readable checkpoint is authoritative for the pipeline state
// and the WAL is authoritative for everything accepted after it; torn
// final frames and corrupt segments degrade to the longest valid prefix
// with a logged warning, never to a failed boot.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/wal"
)

// RecoverReport summarizes one boot recovery.
type RecoverReport struct {
	// Adopted counts streams re-registered and supervised (running, or
	// draining to done for streams whose ingest was closed).
	Adopted int
	// Parked counts streams re-registered in a terminal state: persisted
	// quarantines/failures, plus streams whose adoption itself failed
	// (unreadable checkpoints, fingerprint mismatch, non-contiguous WAL).
	Parked int
	// Replayed is the total WAL records handed to adopted streams' pipelines.
	Replayed int
	// Orphans lists stream directories swept because the manifest does not
	// mention them.
	Orphans []string

	// Phase timings, summed across streams — the butterfly_recovery_seconds
	// series, and the data that tunes CheckpointFullEvery: ChainApply grows
	// with the delta-chain length (full-every interval), WALReplay with the
	// lines accepted since the last FULL anchor.
	Took         time.Duration
	ManifestLoad time.Duration
	OrphanSweep  time.Duration
	ChainApply   time.Duration // anchor snapshot load + delta-frame replay
	WALOpen      time.Duration // WAL + token-journal scan/CRC validation
	WALReplay    time.Duration // reading the post-checkpoint tails back
	// ReplayRate is Replayed ÷ WALReplay in lines per second (0 when nothing
	// was replayed).
	ReplayRate float64
}

// adoptTiming is one stream's recovery-phase breakdown.
type adoptTiming struct {
	chainApply time.Duration
	walOpen    time.Duration
	walReplay  time.Duration
}

// Recover loads the manifest and re-adopts every stream it records. Call
// it once, after New and before serving traffic; it requires a DataDir.
func (s *Server) Recover() (RecoverReport, error) {
	var rep RecoverReport
	t0 := time.Now()
	if s.opts.DataDir == "" {
		return rep, fmt.Errorf("recover requires a server data dir")
	}
	if err := os.MkdirAll(s.streamsRoot(), 0o755); err != nil {
		return rep, fmt.Errorf("creating streams root: %w", err)
	}
	if err := s.loadManifest(); err != nil {
		return rep, err
	}
	rep.ManifestLoad = time.Since(t0)

	// Sweep directories the manifest does not claim. Safe exactly because an
	// unreadable manifest aborted above: reaching here means the manifest is
	// the complete list of streams that were promised durability.
	sweepStart := time.Now()
	entries, err := os.ReadDir(s.streamsRoot())
	if err != nil {
		return rep, fmt.Errorf("listing streams root: %w", err)
	}
	for _, de := range entries {
		if _, ok := s.manifestEntryFor(de.Name()); ok {
			continue
		}
		path := filepath.Join(s.streamsRoot(), de.Name())
		if err := os.RemoveAll(path); err != nil {
			s.log.Warn("orphan sweep failed", "path", path, "error", err.Error())
			continue
		}
		rep.Orphans = append(rep.Orphans, de.Name())
		s.log.Info("orphan stream directory swept", "stream", de.Name())
	}
	rep.OrphanSweep = time.Since(sweepStart)

	s.manifestMu.Lock()
	ids := make([]string, 0, len(s.manifest))
	for id := range s.manifest {
		ids = append(ids, id)
	}
	s.manifestMu.Unlock()
	sort.Strings(ids)

	for _, id := range ids {
		e, ok := s.manifestEntryFor(id)
		if !ok {
			continue
		}
		parked, replayed, tm := s.adopt(id, e)
		if parked {
			rep.Parked++
		} else {
			rep.Adopted++
			rep.Replayed += replayed
		}
		rep.ChainApply += tm.chainApply
		rep.WALOpen += tm.walOpen
		rep.WALReplay += tm.walReplay
	}
	rep.Took = time.Since(t0)
	if rep.Replayed > 0 && rep.WALReplay > 0 {
		rep.ReplayRate = float64(rep.Replayed) / rep.WALReplay.Seconds()
	}
	s.recordRecovery(rep)
	s.ready.Store(true)
	s.log.Info("recovery complete", "adopted", rep.Adopted, "parked", rep.Parked,
		"replayed", rep.Replayed, "orphans", len(rep.Orphans),
		"took", rep.Took.String(), "manifest_load", rep.ManifestLoad.String(),
		"chain_apply", rep.ChainApply.String(), "wal_open", rep.WALOpen.String(),
		"wal_replay", rep.WALReplay.String(),
		"replay_lines_per_sec", fmt.Sprintf("%.0f", rep.ReplayRate))
	return rep, nil
}

// recordRecovery publishes one recovery report to the registry and the
// /healthz surface.
func (s *Server) recordRecovery(rep RecoverReport) {
	s.recoverMu.Lock()
	s.lastRecovery = rep
	s.recoverMu.Unlock()
	m := s.metrics
	if m == nil {
		return
	}
	m.recoveryPhase(recPhaseManifestLoad).Set(rep.ManifestLoad.Seconds())
	m.recoveryPhase(recPhaseOrphanSweep).Set(rep.OrphanSweep.Seconds())
	m.recoveryPhase(recPhaseChainApply).Set(rep.ChainApply.Seconds())
	m.recoveryPhase(recPhaseWALOpen).Set(rep.WALOpen.Seconds())
	m.recoveryPhase(recPhaseWALReplay).Set(rep.WALReplay.Seconds())
	m.recoveryPhase(recPhaseAdopt).Set((rep.ChainApply + rep.WALOpen + rep.WALReplay).Seconds())
	m.recoveryPhase(recPhaseTotal).Set(rep.Took.Seconds())
	m.recoveryStreams(recOutcomeAdopted).Set(float64(rep.Adopted))
	m.recoveryStreams(recOutcomeParked).Set(float64(rep.Parked))
	m.setReplayRate(rep.ReplayRate)
}

// adopt re-registers one manifest stream. A stream that cannot be adopted
// runnable is parked — registered in a terminal state with whatever durable
// resources did open still attached, so the operator can inspect it via the
// control plane, resume it (quarantined), or delete it (which GCs the
// directory) — but never silently dropped: it is in the manifest, so it was
// promised durability.
func (s *Server) adopt(id string, e manifestEntry) (parked bool, replayed int, tm adoptTiming) {
	cfg := e.Config
	cfg.ID = id
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = s.opts.QueueDepth
	}
	if cfg.History == 0 {
		cfg.History = s.opts.History
	}
	scheme, serr := core.SchemeByName(cfg.Scheme, cfg.Lambda, cfg.Gamma)
	st, warnf := s.buildStream(cfg, scheme)

	register := func(state string) {
		s.nstreams.Add(1)
		sh := s.shard(id)
		sh.mu.Lock()
		sh.m[id] = st
		sh.mu.Unlock()
		s.metrics.moveState("", state)
	}
	// park registers the stream terminally: no supervisor runs, done is
	// already closed so Delete and Shutdown never block on it. fresh marks a
	// quarantine minted by this adoption (metric + manifest update) as
	// opposed to one re-loaded from the manifest.
	park := func(state, cause string, fresh bool) {
		parked = true
		st.state = state
		st.lastErr = cause
		close(st.done)
		register(state)
		if fresh {
			s.metrics.addQuarantine(quarAdoption)
			s.manifestSetState(id, manifestQuarantined, cause)
		}
		if e.Closed {
			st.closeIngest()
		}
		s.log.Warn("stream adopted parked", "stream", id, "state", state, "error", cause)
	}

	if serr != nil {
		park(StateQuarantined, fmt.Sprintf("scheme: %v", serr), true)
		return
	}
	dir := s.streamDir(id)
	lease, err := checkpoint.AcquireLease(dir, s.opts.Owner)
	if err != nil {
		park(StateQuarantined, err.Error(), true)
		return
	}
	st.lease = lease
	store, err := checkpoint.NewStore(dir, cfg.CheckpointKeep)
	if err != nil {
		park(StateQuarantined, err.Error(), true)
		return
	}
	store.Logf = warnf
	store.OnSave = st.onCheckpointSave
	st.store = store
	st.pipeCfg.Checkpoints = store
	if s.opts.hookStore != nil {
		s.opts.hookStore(id, store)
	}
	if cfg.Raw {
		// Written by an older binary that served raw streams; never again.
		park(StateQuarantined, errRawRefused.Error(), true)
		return
	}
	if !e.Fingerprint.Chunked {
		park(StateQuarantined, pipeline.ErrRetiredDrawOrder.Error(), true)
		return
	}
	if fp := st.pipeCfg.Fingerprint(); fp != e.Fingerprint {
		park(StateQuarantined, "manifest fingerprint does not match the stream config", true)
		return
	}
	walOpenStart := time.Now()
	walRep, err := st.openDurable(dir, warnf)
	tm.walOpen = time.Since(walOpenStart)
	if err != nil {
		park(StateQuarantined, err.Error(), true)
		return
	}
	if walRep.Outcome != wal.OutcomeClean {
		s.log.Warn("wal recovered with damage", "stream", id,
			"outcome", walRep.Outcome, "frames", walRep.Frames,
			"dropped_bytes", walRep.DroppedBytes, "dropped_segments", walRep.DroppedSegments)
	}
	snap, det, err := st.store.LatestDetail()
	tm.chainApply = det.LoadDur + det.ChainApplyDur
	if err != nil {
		park(StateQuarantined, fmt.Sprintf("loading checkpoint: %v", err), true)
		return
	}

	// Rebuild the acceptance counters. The checkpoint and the WAL each
	// bound them from below: a crash right after a checkpoint save may have
	// truncated the WAL past lines the checkpoint covers, and a crash
	// before any save leaves only the WAL.
	var ckptLine uint64
	if snap != nil {
		ckptLine = snap.Records + snap.BadRecords
		st.lastCkpt = snap.Records
		st.consumed = snap.Records
	}
	lines := ckptLine
	if l := st.wal.LastLine(); l > lines {
		lines = l
	}
	seq := uint64(0)
	if snap != nil {
		seq = snap.Records
	}
	if q := st.wal.LastSeq(); q > seq {
		seq = q
	}
	st.lines.Store(lines)
	st.seq.Store(seq)
	// Every recovered line may already have reached a pipeline, so restart
	// replay re-reads up to here even before this process consumes one.
	st.consumedLine = lines
	// The truncation horizon re-arms at the ANCHOR full snapshot's line,
	// not the delta-chain tip: the next full save truncates up to here, and
	// the chain the resume came from must stay replayable until then.
	st.prevCkptLine = det.AnchorRecords + det.AnchorBadRecords

	vcfg := st.pipeCfg
	vcfg.Resume = snap
	if _, err := pipeline.New(vcfg); err != nil {
		park(StateQuarantined, err.Error(), true)
		return
	}
	replayStart := time.Now()
	tail, err := st.wal.Tail(ckptLine, lines)
	tm.walReplay = time.Since(replayStart)
	if err != nil {
		park(StateQuarantined, fmt.Sprintf("wal replay: %v", err), true)
		return
	}
	// A WAL that lost lines the checkpoint covers (corrupt segments dropped
	// to a prefix below it) must still accept appends at the stream's line
	// coordinates: seal it past the checkpoint.
	if err := st.wal.Rebase(lines, seq); err != nil {
		park(StateQuarantined, fmt.Sprintf("wal rebase: %v", err), true)
		return
	}

	// Persisted terminal states park as-is (resources attached, replay
	// bounds computed) so a later resume restarts them exactly like an
	// in-process un-quarantine would.
	switch e.State {
	case manifestQuarantined:
		park(StateQuarantined, e.LastError, false)
		return
	case manifestFailed:
		park(StateFailed, e.LastError, false)
		return
	}

	replayed = len(tail)
	ckptRecords := st.lastCkpt // read before the supervisor can checkpoint
	register(StateRunning)
	s.wg.Add(1)
	go s.supervise(st, snap, walItems(tail))
	if e.Closed {
		// The client had already ended the stream; after replay it drains to
		// done (and its directory is then GC'd).
		st.closeIngest()
	}
	s.log.Info("stream adopted", "stream", id, "lines", lines,
		"checkpoint_records", ckptRecords, "replayed", replayed, "closed", e.Closed)
	return
}
