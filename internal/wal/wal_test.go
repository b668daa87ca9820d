package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/frame"
	"repro/internal/itemset"
	"repro/internal/telemetry"
)

func goodRec(line, seq uint64, items ...itemset.Item) Record {
	return Record{Line: line, Seq: seq, Rec: itemset.FromSorted(items)}
}

func badRec(line, seq uint64) Record {
	return Record{Line: line, Seq: seq,
		Bad: &data.ParseError{Line: int(line), Token: "x\x00y", Err: data.ErrTokenNUL}}
}

// appendN appends records lines from..to (every 5th line malformed), syncing
// every syncEvery lines.
func appendN(t *testing.T, l *Log, from, to uint64, syncEvery int) {
	t.Helper()
	seq := uint64(0)
	if from > 1 {
		// Recompute the good-record count below from: every 5th is bad.
		for line := uint64(1); line < from; line++ {
			if line%5 != 0 {
				seq++
			}
		}
	}
	n := 0
	for line := from; line <= to; line++ {
		var r Record
		if line%5 == 0 {
			r = badRec(line, seq)
		} else {
			seq++
			r = goodRec(line, seq, itemset.Item(line%7), itemset.Item(line%7+10), itemset.Item(line+20))
		}
		if err := l.Append(r); err != nil {
			t.Fatalf("append line %d: %v", line, err)
		}
		if n++; n%syncEvery == 0 {
			if err := l.Sync(); err != nil {
				t.Fatalf("sync at line %d: %v", line, err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("final sync: %v", err)
	}
}

func sameRecords(a, b []Record) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d records, want %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Line != y.Line || x.Seq != y.Seq {
			return fmt.Errorf("record %d: line/seq %d/%d, want %d/%d", i, x.Line, x.Seq, y.Line, y.Seq)
		}
		if (x.Bad == nil) != (y.Bad == nil) {
			return fmt.Errorf("record %d: kind mismatch", i)
		}
		if x.Bad != nil {
			if x.Bad.Line != y.Bad.Line || x.Bad.Token != y.Bad.Token || x.Bad.Err.Error() != y.Bad.Err.Error() {
				return fmt.Errorf("record %d: bad payload mismatch", i)
			}
			continue
		}
		xi, yi := x.Rec.Items(), y.Rec.Items()
		if len(xi) != len(yi) {
			return fmt.Errorf("record %d: %d items, want %d", i, len(xi), len(yi))
		}
		for j := range xi {
			if xi[j] != yi[j] {
				return fmt.Errorf("record %d item %d: %d, want %d", i, j, xi[j], yi[j])
			}
		}
	}
	return nil
}

// TestWALRoundTrip: records written across several rotations come back
// byte-exactly from a reopened log, with a clean recovery report.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	l, rep, err := Open(dir, Options{SegmentBytes: 512, Metrics: reg, Stream: "s"})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rep.Outcome != OutcomeClean || rep.Frames != 0 {
		t.Fatalf("fresh open: %+v, want clean and empty", rep)
	}
	appendN(t, l, 1, 100, 7)
	if l.SegmentCount() < 3 {
		t.Errorf("100 records at 512-byte segments made %d segments, want >= 3", l.SegmentCount())
	}
	want, err := l.Tail(0, 100)
	if err != nil {
		t.Fatalf("tail before reopen: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rep, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rep.Outcome != OutcomeClean {
		t.Errorf("reopen outcome %q, want clean", rep.Outcome)
	}
	if rep.Frames != 100 || rep.LastLine != 100 || rep.LastSeq != 80 {
		t.Errorf("reopen report %+v, want 100 frames, last line 100, last seq 80", rep)
	}
	got, err := l2.Tail(0, 100)
	if err != nil {
		t.Fatalf("tail after reopen: %v", err)
	}
	if err := sameRecords(got, want); err != nil {
		t.Fatalf("reopened tail differs: %v", err)
	}
	// Partial ranges cross segment boundaries.
	mid, err := l2.Tail(37, 81)
	if err != nil {
		t.Fatalf("mid tail: %v", err)
	}
	if err := sameRecords(mid, want[37:81]); err != nil {
		t.Fatalf("mid tail differs: %v", err)
	}
}

// TestWALTailIncludesPending: records appended but not yet synced are part
// of the tail — a consumed-before-sync record must still be replayable.
func TestWALTailIncludesPending(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	appendN(t, l, 1, 10, 100) // one final sync
	if err := l.Append(goodRec(11, 9, 1, 2, 3)); err != nil {
		t.Fatalf("append: %v", err)
	}
	got, err := l.Tail(8, 11)
	if err != nil {
		t.Fatalf("tail with pending: %v", err)
	}
	if len(got) != 3 || got[2].Line != 11 {
		t.Fatalf("tail with pending = %d records ending %d, want 3 ending line 11", len(got), got[len(got)-1].Line)
	}
}

// TestWALTruncateBefore: sealed segments fully covered by the checkpoint
// line disappear; the covering and active segments stay; the tail past the
// line remains replayable.
func TestWALTruncateBefore(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{SegmentBytes: 512})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	appendN(t, l, 1, 100, 7)
	before := l.SegmentCount()
	if err := l.TruncateBefore(60); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if after := l.SegmentCount(); after >= before {
		t.Errorf("truncate kept %d of %d segments", after, before)
	}
	if _, err := l.Tail(60, 100); err != nil {
		t.Fatalf("tail past the truncation point: %v", err)
	}
	// Everything covered: only the active segment may remain.
	if err := l.TruncateBefore(100); err != nil {
		t.Fatalf("truncate all: %v", err)
	}
	if got, err := l.Tail(100, 100); err != nil || len(got) != 0 {
		t.Fatalf("empty tail after full truncation: %d records, %v", len(got), err)
	}
}

// TestWALTornTailRecovery: a partial trailing frame (torn write) is dropped
// on reopen with outcome torn_tail; every earlier frame survives and the
// log appends cleanly after the cut.
func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendN(t, l, 1, 20, 100)
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, segGlob))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, have %d", len(segs))
	}
	info, _ := os.Stat(segs[0])
	if err := os.Truncate(segs[0], info.Size()-3); err != nil {
		t.Fatalf("tearing tail: %v", err)
	}

	var warned bool
	l2, rep, err := Open(dir, Options{Logf: func(string, ...any) { warned = true }})
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	defer l2.Close()
	if rep.Outcome != OutcomeTornTail {
		t.Errorf("outcome %q, want torn_tail", rep.Outcome)
	}
	if !warned {
		t.Error("torn-tail recovery logged no warning")
	}
	if rep.LastLine != 19 {
		t.Errorf("recovered to line %d, want 19", rep.LastLine)
	}
	// The log continues from the cut.
	seq := l2.LastSeq()
	if err := l2.Append(goodRec(20, seq+1, 1, 2)); err != nil {
		t.Fatalf("append after torn recovery: %v", err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatalf("sync after torn recovery: %v", err)
	}
}

// TestWALCorruptSegmentRecovery: bit rot inside a sealed middle segment
// recovers to the longest valid prefix — the damaged segment truncates and
// all later segments drop, outcome corrupt.
func TestWALCorruptSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendN(t, l, 1, 100, 7)
	nsegs := l.SegmentCount()
	if nsegs < 3 {
		t.Fatalf("need >= 3 segments, have %d", nsegs)
	}
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, segGlob))
	mid := segs[1]
	buf, _ := os.ReadFile(mid)
	buf[segHeader+frame.HeaderLen+1] ^= 0xFF // flip a payload byte of the first frame
	if err := os.WriteFile(mid, buf, 0o644); err != nil {
		t.Fatalf("corrupting %s: %v", mid, err)
	}

	l2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen corrupt: %v", err)
	}
	defer l2.Close()
	if rep.Outcome != OutcomeCorrupt {
		t.Errorf("outcome %q, want corrupt", rep.Outcome)
	}
	if rep.DroppedSegments == 0 {
		t.Error("corrupt middle segment dropped no later segments")
	}
	// The valid prefix is exactly segment 0's frames.
	if _, err := l2.Tail(0, rep.LastLine); err != nil {
		t.Fatalf("tail of recovered prefix: %v", err)
	}
	next := rep.LastLine + 1
	if err := l2.Append(goodRec(next, l2.LastSeq()+1, 4)); err != nil {
		t.Fatalf("append after corrupt recovery: %v", err)
	}
}

// TestWALCrashHooks: before-sync leaves the disk untouched (the whole group
// is lost, as a real kill -9 would lose it); torn-sync lands half the group
// and recovery drops the cut frame.
func TestWALCrashHooks(t *testing.T) {
	for _, point := range []string{CrashBeforeSync, CrashTornSync} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			appendN(t, l, 1, 10, 100) // 10 durable lines
			l.CrashHook = func(p string, sync int) bool { return p == point }
			for line := uint64(11); line <= 14; line++ {
				// Lines 5 and 10 of the prefix were bad, so seq = line - 2.
				if err := l.Append(goodRec(line, line-2, 9)); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			if err := l.Sync(); !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("sync with %s hook: %v, want injected crash", point, err)
			}
			l.Close()

			l2, rep, err := Open(dir, Options{Logf: t.Logf})
			if err != nil {
				t.Fatalf("reopen after %s: %v", point, err)
			}
			defer l2.Close()
			if rep.LastLine > 13 {
				t.Errorf("recovered past the crash: line %d", rep.LastLine)
			}
			if rep.LastLine < 10 {
				t.Errorf("crash at %s lost durable lines: recovered to %d, want >= 10", point, rep.LastLine)
			}
			if point == CrashBeforeSync && rep.LastLine != 10 {
				t.Errorf("before-sync crash left %d lines, want exactly the 10 durable ones", rep.LastLine)
			}
			// torn-sync may cut on or off a frame boundary; any prefix of the
			// unacknowledged group is a correct recovery (checked above).
		})
	}
}

// TestWALAppendOrdering: out-of-order lines are refused — the log's
// contiguity is an invariant, not a recovery-time surprise.
func TestWALAppendOrdering(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	if err := l.Append(goodRec(1, 1, 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Append(goodRec(3, 2, 1)); err == nil {
		t.Fatal("append of line 3 after line 1 succeeded")
	}
}

// TestWALTailGap: a tail request outside what the log holds is an error,
// not a silent short list (the restart path quarantines on it).
func TestWALTailGap(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	appendN(t, l, 1, 50, 5)
	if err := l.TruncateBefore(50); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	first := l.segs[0].base
	if first == 1 {
		t.Skip("nothing pruned at this segment size")
	}
	if _, err := l.Tail(0, 50); err == nil {
		t.Fatal("tail over pruned lines succeeded")
	}
}

// TestTokenLogRoundTrip: tokens come back in interning order across reopen,
// and a torn trailing token is dropped, not half-read.
func TestTokenLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tl, toks, err := OpenTokens(dir, nil)
	if err != nil {
		t.Fatalf("open tokens: %v", err)
	}
	if len(toks) != 0 {
		t.Fatalf("fresh journal has %d tokens", len(toks))
	}
	tl.Append([]string{"alpha", "beta"})
	if err := tl.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	tl.Append([]string{"gamma"})
	if err := tl.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	tl.Close()

	// Torn write: a partial fourth token with no newline.
	path := filepath.Join(dir, tokenLogName)
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString("del")
	f.Close()

	var warned bool
	tl2, toks, err := OpenTokens(dir, func(string, ...any) { warned = true })
	if err != nil {
		t.Fatalf("reopen tokens: %v", err)
	}
	defer tl2.Close()
	if strings.Join(toks, ",") != "alpha,beta,gamma" {
		t.Fatalf("recovered tokens %v", toks)
	}
	if !warned {
		t.Error("torn token tail logged no warning")
	}
	tl2.Append([]string{"delta"})
	if err := tl2.Sync(); err != nil {
		t.Fatalf("append after torn tail: %v", err)
	}
	_, toks, err = OpenTokens(dir, nil)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if strings.Join(toks, ",") != "alpha,beta,gamma,delta" {
		t.Fatalf("tokens after re-append: %v", toks)
	}
}

// TestWALRejectsWrappingItemGap: a checksum-valid frame whose item gap
// wraps round past 2^63 is corrupt to the full decode and to the recovery
// scan's validate-only decode alike — never a panic, a repeated id or a
// negative one.
func TestWALRejectsWrappingItemGap(t *testing.T) {
	for i, p := range wrapGapPayloads() {
		for _, full := range []bool{true, false} {
			if rec, err := decodePayload(p, full); !errors.Is(err, ErrCorrupt) {
				t.Errorf("payload %d (full=%v): %+v, %v; want ErrCorrupt", i, full, rec, err)
			}
		}
	}
}

// buildFrame encodes one record as a wire frame (test helper shared with
// the fuzz seeds).
func buildFrame(r Record) []byte {
	b := appendRecord(frame.Begin(nil), r)
	frame.Seal(b, 0)
	return b
}
