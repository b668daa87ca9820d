package checkpoint

import (
	"errors"
	"sync/atomic"
)

// Memory is the in-memory checkpoint sink: it keeps the newest full
// snapshot and nothing else. A stream with no directory to persist to
// restarts from it exactly as a durable stream restarts from its Store —
// the snapshot plus the records consumed after it — so its restart cost
// follows the checkpoint interval, not the stream's age. It does not
// survive the process.
//
// Save and AppendDelta run on the saving goroutine (the pipeline's emit
// stage); Latest may be called from any goroutine.
type Memory struct {
	// OnSave, when non-nil, is called after each Save with the snapshot's
	// stream position (always Full), as Store.OnSave is.
	OnSave func(sv Saved)

	snap atomic.Pointer[Snapshot]
}

// errMemoryDelta refuses delta generations: a chain only pays off when the
// full snapshot it saves is expensive to write, and in memory it is a
// pointer store.
var errMemoryDelta = errors.New("checkpoint: the memory sink keeps full snapshots only")

// Save keeps s as the newest snapshot. s is retained, not copied: the
// caller must not mutate it afterwards (the pipeline builds a fresh one per
// generation).
func (m *Memory) Save(s *Snapshot) error {
	m.snap.Store(s)
	if m.OnSave != nil {
		m.OnSave(Saved{Records: s.Records, BadRecords: s.BadRecords, Full: true})
	}
	return nil
}

// AppendDelta refuses: configure every generation full (CheckpointFullEvery
// <= 1) when checkpointing to memory.
func (m *Memory) AppendDelta(*Delta) error { return errMemoryDelta }

// LastSaveBytes is 0: nothing is written.
func (m *Memory) LastSaveBytes() int { return 0 }

// ChainFrames is 0: the sink holds full snapshots only.
func (m *Memory) ChainFrames() int { return 0 }

// Latest returns the newest saved snapshot, or nil before the first Save.
// The snapshot is shared: treat it as read-only (pipeline resume does —
// core.Publisher.Restore copies the state it is given).
func (m *Memory) Latest() *Snapshot { return m.snap.Load() }
