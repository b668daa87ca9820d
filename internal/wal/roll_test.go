package wal

// The full-anchor roll: TruncateBefore arms it, the next Sync seals the
// active segment after writing its group, and a rotation of any kind
// satisfies it.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/itemset"
)

// diskBases returns the base lines of the segment files in dir, oldest
// first, read back through each file's header.
func diskBases(t *testing.T, dir string) []uint64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segGlob))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	bases := make([]uint64, 0, len(paths))
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		base, err := checkSegHeader(p, buf)
		if err != nil {
			t.Fatalf("segment %s: %v", p, err)
		}
		bases = append(bases, base)
	}
	return bases
}

func wantBases(t *testing.T, dir string, want ...uint64) {
	t.Helper()
	if got := diskBases(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("segment bases on disk %v, want %v", got, want)
	}
}

// syncGood appends well-formed one-item records from..to (seq = line) as
// one group and syncs it.
func syncGood(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for line := from; line <= to; line++ {
		if err := l.Append(goodRec(line, line, 1)); err != nil {
			t.Fatalf("append line %d: %v", line, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

// TestWALRollAtNextSync: a TruncateBefore with frames buffered creates no
// file; the next Sync writes the group into the old segment and then starts
// one based at the next line; later Syncs do not roll again.
func TestWALRollAtNextSync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendN(t, l, 1, 20, 7)
	for line := uint64(21); line <= 25; line++ {
		if err := l.Append(goodRec(line, line-4, 3)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.TruncateBefore(10); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	wantBases(t, dir, 1)
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	wantBases(t, dir, 1, 26)
	appendN(t, l, 26, 40, 3)
	wantBases(t, dir, 1, 26)

	want, err := l.Tail(0, 40)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	l.Close()
	l2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rep.Outcome != OutcomeClean || rep.Frames != 40 {
		t.Fatalf("reopen report %+v, want clean with 40 frames", rep)
	}
	got, err := l2.Tail(0, 40)
	if err != nil {
		t.Fatalf("tail after reopen: %v", err)
	}
	if err := sameRecords(got, want); err != nil {
		t.Fatalf("reopened tail differs: %v", err)
	}
}

// TestWALRollFromEmptySegment: an anchor that lands while the active
// segment holds no frames (just opened, or just rotated) still rolls
// cleanly — the Sync writes a group before sealing, so the successor's
// base is new.
func TestWALRollFromEmptySegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	if err := l.TruncateBefore(0); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if err := l.Sync(); err != nil { // nothing buffered: no roll yet
		t.Fatalf("empty sync: %v", err)
	}
	wantBases(t, dir, 1)
	appendN(t, l, 1, 3, 100)
	wantBases(t, dir, 1, 4)
}

// TestWALTwoAnchorsOneRoll: two TruncateBefore calls with no Sync between
// them make one roll.
func TestWALTwoAnchorsOneRoll(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	appendN(t, l, 1, 10, 100)
	for _, line := range []uint64{4, 8} {
		if err := l.TruncateBefore(line); err != nil {
			t.Fatalf("truncate: %v", err)
		}
	}
	appendN(t, l, 11, 12, 100)
	appendN(t, l, 13, 14, 100)
	wantBases(t, dir, 1, 13)
}

// TestWALTruncateBeforeClosedArmsNothing: a full save that completes after
// the log closed neither arms a roll nor touches the directory.
func TestWALTruncateBeforeClosedArmsNothing(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendN(t, l, 1, 10, 100)
	l.Close()
	if err := l.TruncateBefore(10); err != nil {
		t.Fatalf("truncate on a closed log: %v", err)
	}
	if l.roll {
		t.Error("truncate on a closed log armed a roll")
	}
	wantBases(t, dir, 1)
}

// TestWALRotationSatisfiesRoll: a size rotation or a Rebase starts a new
// segment, which is what the armed roll asked for, so the next Sync does
// not roll again.
func TestWALRotationSatisfiesRoll(t *testing.T) {
	t.Run("size", func(t *testing.T) {
		// A cap one byte above two frames: the first group stays under it,
		// the second crosses it while a roll is armed.
		frameLen := int64(len(buildFrame(goodRec(1, 1, 1))))
		dir := t.TempDir()
		l, _, err := Open(dir, Options{SegmentBytes: int64(segHeader) + 2*frameLen + 1})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer l.Close()
		syncGood(t, l, 1, 2)
		wantBases(t, dir, 1)
		if err := l.TruncateBefore(0); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		syncGood(t, l, 3, 4)
		wantBases(t, dir, 1, 5)
		syncGood(t, l, 5, 5)
		wantBases(t, dir, 1, 5)
	})
	t.Run("rebase", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer l.Close()
		appendN(t, l, 1, 5, 100)
		if err := l.TruncateBefore(0); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		if err := l.Rebase(20, 16); err != nil {
			t.Fatalf("rebase: %v", err)
		}
		wantBases(t, dir, 1, 21)
		if err := l.Append(goodRec(21, 17, 1)); err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
		wantBases(t, dir, 1, 21)
	})
}

// TestWALTornSyncBeforeRoll: a torn write on the Sync that would roll
// fails the log before the roll, and recovery keeps the longest valid
// prefix of the group. The group is three equal frames, so the half that
// lands ends inside the second.
func TestWALTornSyncBeforeRoll(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendN(t, l, 1, 10, 100)
	if err := l.TruncateBefore(5); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	l.CrashHook = func(p string, _ int) bool { return p == CrashTornSync }
	for line := uint64(11); line <= 13; line++ {
		if err := l.Append(goodRec(line, line-2, itemset.Item(line))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Sync(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("torn sync: %v, want injected crash", err)
	}
	l.Close()
	wantBases(t, dir, 1)

	l2, rep, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rep.Outcome != OutcomeTornTail || rep.LastLine != 11 {
		t.Fatalf("recovered %+v, want a torn tail ending at line 11", rep)
	}
	if _, err := l2.Tail(0, rep.LastLine); err != nil {
		t.Fatalf("tail of recovered prefix: %v", err)
	}
	next := rep.LastLine + 1
	if err := l2.Append(goodRec(next, l2.LastSeq()+1, 2)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
}
