package checkpoint

import (
	"errors"
	"testing"
)

// TestMemorySink: the memory sink holds the newest full snapshot, reports
// each save through OnSave as a full generation at the snapshot's position,
// writes no bytes, and refuses delta frames.
func TestMemorySink(t *testing.T) {
	var saved []Saved
	m := &Memory{OnSave: func(sv Saved) { saved = append(saved, sv) }}
	if m.Latest() != nil {
		t.Fatal("a fresh sink holds a snapshot")
	}
	a := &Snapshot{Records: 100, BadRecords: 2}
	b := &Snapshot{Records: 150, BadRecords: 3}
	for _, s := range []*Snapshot{a, b} {
		if err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if m.Latest() != b {
		t.Errorf("Latest = %+v, want the newest save %+v", m.Latest(), b)
	}
	want := []Saved{{Records: 100, BadRecords: 2, Full: true}, {Records: 150, BadRecords: 3, Full: true}}
	if len(saved) != len(want) || saved[0] != want[0] || saved[1] != want[1] {
		t.Errorf("OnSave saw %+v, want %+v", saved, want)
	}
	if m.LastSaveBytes() != 0 || m.ChainFrames() != 0 {
		t.Errorf("LastSaveBytes %d, ChainFrames %d; want 0 and 0", m.LastSaveBytes(), m.ChainFrames())
	}
	if err := m.AppendDelta(&Delta{ParentRecords: 150, Records: 160}); !errors.Is(err, errMemoryDelta) {
		t.Errorf("AppendDelta = %v, want the full-snapshots-only refusal", err)
	}
	if m.Latest() != b {
		t.Error("a refused delta replaced the held snapshot")
	}
}
