package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// goldenSegment pins the frozen segment format byte for byte. It holds the
// goldenRecords, appended to a fresh log and synced as one group.
const goldenSegment = "testdata/golden.seg"

// goldenRecords covers every payload shape: a good record, a malformed line
// whose token holds a NUL byte, an empty itemset, and the largest item id.
func goldenRecords() []Record {
	return []Record{
		goodRec(1, 1, 3, 7, 8, 300),
		badRec(2, 1),
		goodRec(3, 2),
		goodRec(4, 3, 0, math.MaxInt32),
	}
}

func TestGoldenSegmentBytes(t *testing.T) {
	golden, err := os.ReadFile(goldenSegment)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		i := 0
		for i < len(got) && i < len(golden) && got[i] == golden[i] {
			i++
		}
		t.Fatalf("segment drifted from %s: %d bytes, golden %d, first difference at offset %d",
			goldenSegment, len(got), len(golden), i)
	}

	// Decode the golden bytes back: a log opened over them recovers cleanly
	// and replays exactly the inputs.
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := goldenRecords()
	if rep.Outcome != OutcomeClean || rep.Frames != len(want) {
		t.Fatalf("golden segment recovered as %+v, want %d clean frames", rep, len(want))
	}
	recs, err := l.Tail(0, uint64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRecords(recs, want); err != nil {
		t.Fatal(err)
	}
}
