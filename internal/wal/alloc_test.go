package wal

import (
	"testing"

	"repro/internal/itemset"
)

// TestAppendAllocsPinned: Log.Append encodes each frame straight into the
// group buffer, so once the buffers have grown to a group's size it
// allocates nothing per record.
func TestAppendAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector's shadow allocations")
	}
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := itemset.New(2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
	const group = 32
	var line uint64
	appendGroup := func() {
		for i := 0; i < group; i++ {
			line++
			if err := l.Append(Record{Line: line, Seq: line, Rec: rec}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	appendGroup() // grow the group buffers to their high-water mark
	if perRecord := testing.AllocsPerRun(10, appendGroup) / group; perRecord > 1 {
		t.Errorf("Append allocates %.2f objects per 10-item record, want at most 1", perRecord)
	}
}

// TestOpenAllocsPinned: Open's recovery scan validates every frame without
// decoding it, so its allocations do not grow with the frame count.
func TestOpenAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector's shadow allocations")
	}
	const bound = 32
	allocs := map[int]float64{}
	for _, frames := range []int{1000, 4000} {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{SegmentBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 1, uint64(frames), 500)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		allocs[frames] = testing.AllocsPerRun(5, func() {
			l, rep, err := Open(dir, Options{})
			if err != nil || rep.Frames != frames {
				t.Fatalf("reopen: %+v, %v", rep, err)
			}
			l.Close()
		})
	}
	if allocs[1000] != allocs[4000] || allocs[4000] > bound {
		t.Errorf("Open allocates %.0f objects over 1000 frames and %.0f over 4000; want equal counts, at most %d",
			allocs[1000], allocs[4000], bound)
	}
	t.Logf("Open allocations: %v", allocs)
}
