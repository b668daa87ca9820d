package server

// The stream manifest is the server's durable registry: every admitted
// stream's validated config, pipeline fingerprint, and durable lifecycle
// state, kept under <data-dir>/manifest.json and rewritten atomically
// (checkpoint.AtomicWrite: temp file, fsync, rename, directory fsync) on
// create, quarantine, failure, close, and removal. Boot recovery
// (recovery.go) trusts it completely: manifest streams are re-adopted,
// stream directories it does not mention are swept as orphans, and a
// manifest that cannot be parsed stops recovery cold — guessing about
// stream identity is how perturbation state gets crossed between tenants.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/checkpoint"
)

const (
	manifestVersion = 1
	manifestName    = "manifest.json"
	// streamsDirName nests per-stream directories one level below the data
	// dir so no stream id (manifest.json is a valid one) can collide with
	// the manifest itself.
	streamsDirName = "streams"
)

// Durable lifecycle states recorded in the manifest. Running and paused
// collapse to active: a pause gate is an in-memory, operator-session
// concept, while quarantine and failure describe the stream's relationship
// to its own history and must survive a reboot.
const (
	manifestActive      = "active"
	manifestQuarantined = "quarantined"
	manifestFailed      = "failed"
)

// manifestEntry is one stream's durable record.
type manifestEntry struct {
	// Config is the validated create-time config. A re-adopted stream
	// resumes from its own checkpoint + WAL. Decoding ignores unknown keys,
	// so an entry written with a since-removed field (such as "resume")
	// still loads.
	Config StreamConfig `json:"config"`
	// Fingerprint pins the pipeline parameters the stream's checkpoints and
	// WAL were written under; a mismatch at adoption quarantines the stream
	// instead of resuming it wrong.
	Fingerprint checkpoint.Meta `json:"fingerprint"`
	State       string          `json:"state"`
	// Closed records a client-initiated ingest close: an adopted stream
	// re-closes its queue after replay and drains to done.
	Closed bool `json:"closed,omitempty"`
	// LastError survives reboots so a quarantined stream still explains
	// itself in GET /v1/streams/{id} after the process that quarantined it
	// is gone.
	LastError string `json:"last_error,omitempty"`
}

type manifestFile struct {
	Version int                      `json:"version"`
	Streams map[string]manifestEntry `json:"streams"`
}

func (s *Server) manifestPath() string { return filepath.Join(s.opts.DataDir, manifestName) }
func (s *Server) streamsRoot() string  { return filepath.Join(s.opts.DataDir, streamsDirName) }

// streamDir is the per-stream durable directory: checkpoints, WAL segments,
// token journal, lease.
func (s *Server) streamDir(id string) string { return filepath.Join(s.streamsRoot(), id) }

// loadManifest reads the manifest into the in-memory mirror. A missing file
// is an empty manifest; an unparseable or future-version file is an error —
// recovery must refuse to run (and in particular must not orphan-sweep)
// rather than guess which streams were promised durability.
func (s *Server) loadManifest() error {
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	raw, err := os.ReadFile(s.manifestPath())
	if errors.Is(err, os.ErrNotExist) {
		s.manifest = map[string]manifestEntry{}
		return nil
	}
	if err != nil {
		return fmt.Errorf("reading stream manifest: %w", err)
	}
	var mf manifestFile
	if err := json.Unmarshal(raw, &mf); err != nil {
		return fmt.Errorf("stream manifest %s is unreadable: %w (repair or remove it; refusing to guess)",
			s.manifestPath(), err)
	}
	if mf.Version != manifestVersion {
		return fmt.Errorf("stream manifest %s is version %d, this server speaks %d",
			s.manifestPath(), mf.Version, manifestVersion)
	}
	if mf.Streams == nil {
		mf.Streams = map[string]manifestEntry{}
	}
	s.manifest = mf.Streams
	return nil
}

// saveManifestLocked rewrites the manifest atomically. Caller holds
// manifestMu.
func (s *Server) saveManifestLocked() error {
	buf, err := json.MarshalIndent(manifestFile{Version: manifestVersion, Streams: s.manifest}, "", "  ")
	if err != nil {
		return err
	}
	return checkpoint.AtomicWrite(s.manifestPath(), append(buf, '\n'))
}

// manifestPut records (or replaces) a stream's entry. Unlike the state
// helpers below it propagates the write error: a create whose manifest
// entry cannot be persisted has not durably happened and must be refused.
func (s *Server) manifestPut(id string, e manifestEntry) error {
	if s.opts.DataDir == "" {
		return nil
	}
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	if s.manifest == nil {
		s.manifest = map[string]manifestEntry{}
	}
	prev, had := s.manifest[id]
	s.manifest[id] = e
	if err := s.saveManifestLocked(); err != nil {
		if had {
			s.manifest[id] = prev
		} else {
			delete(s.manifest, id)
		}
		return fmt.Errorf("stream %s: persisting manifest: %w", id, err)
	}
	return nil
}

// manifestSetState moves a stream's durable state (best effort: the stream
// is already in the new state in memory; a failed write costs accuracy
// after a crash, not correctness — adoption re-derives what it can).
func (s *Server) manifestSetState(id, state, lastErr string) {
	s.manifestMutate(id, func(e *manifestEntry) {
		e.State = state
		e.LastError = lastErr
	})
}

// manifestSetClosed records a client-initiated ingest close.
func (s *Server) manifestSetClosed(id string) {
	s.manifestMutate(id, func(e *manifestEntry) { e.Closed = true })
}

func (s *Server) manifestMutate(id string, mut func(e *manifestEntry)) {
	if s.opts.DataDir == "" {
		return
	}
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	e, ok := s.manifest[id]
	if !ok {
		return
	}
	before := e
	mut(&e)
	if e == before {
		return
	}
	s.manifest[id] = e
	if err := s.saveManifestLocked(); err != nil {
		s.manifest[id] = before
		s.log.Warn("manifest update failed", "stream", id, "error", err.Error())
	}
}

// manifestRemove forgets a stream. Called before its directory is removed,
// so a crash mid-GC leaves an orphan directory for the boot sweep — never a
// manifest entry pointing at nothing.
func (s *Server) manifestRemove(id string) {
	if s.opts.DataDir == "" {
		return
	}
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	if _, ok := s.manifest[id]; !ok {
		return
	}
	delete(s.manifest, id)
	if err := s.saveManifestLocked(); err != nil {
		s.log.Warn("manifest removal failed", "stream", id, "error", err.Error())
	}
}

// manifestEntryFor returns a stream's durable entry, if any.
func (s *Server) manifestEntryFor(id string) (manifestEntry, bool) {
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	e, ok := s.manifest[id]
	return e, ok
}
