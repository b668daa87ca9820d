package checkpoint_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/itemset"
)

// testDelta builds a delta extending s by advance records, exercising every
// field: appended window records, cache upserts with binary keys, and
// evictions. seed varies the content so consecutive deltas differ.
func testDelta(tb testing.TB, s *checkpoint.Snapshot, advance int, seed uint64) *checkpoint.Delta {
	tb.Helper()
	n := advance
	if w := s.Meta.WindowSize; n > w {
		n = w
	}
	upserts := []core.CacheEntry{
		{Key: itemset.New(itemset.Item(seed), 5).Key(), TrueSupport: 30 + int(seed), Sanitized: 33, LastSeen: s.Publisher.Window + 1},
		{Key: itemset.New(itemset.Item(seed) + 1).Key(), TrueSupport: 41, Sanitized: 38 + int(seed), LastSeen: s.Publisher.Window + 1},
	}
	sort.Slice(upserts, func(i, j int) bool { return upserts[i].Key < upserts[j].Key })
	return &checkpoint.Delta{
		ParentRecords: s.Records,
		Records:       s.Records + uint64(advance),
		BadRecords:    s.BadRecords + 1,
		Published:     s.Published + 1,
		Appended:      data.WebViewLike(seed).Generate(n),
		Publisher: core.PublisherDelta{
			Window:  s.Publisher.Window + 1,
			RNG:     s.Publisher.RNG + seed*7,
			Upserts: upserts,
		},
	}
}

// deepCopy round-trips a snapshot through the v1 codec — the cheapest
// guaranteed-deep copy, and one more exercise of the canonical format.
func deepCopy(tb testing.TB, s *checkpoint.Snapshot) *checkpoint.Snapshot {
	tb.Helper()
	enc, err := checkpoint.Encode(s)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := checkpoint.Decode(enc)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func TestDeltaEncodeDecodeRoundTrip(t *testing.T) {
	anchor := testSnapshot(t)
	want := testDelta(t, anchor, 10, 3)
	want.Publisher.Evicted = []string{itemset.New(9).Key(), itemset.New(11).Key()}
	sort.Strings(want.Publisher.Evicted)
	payload, err := checkpoint.EncodeDelta(want, 0xCAFEF00D)
	if err != nil {
		t.Fatal(err)
	}
	got, parentCRC, err := checkpoint.DecodeDelta(payload)
	if err != nil {
		t.Fatal(err)
	}
	if parentCRC != 0xCAFEF00D {
		t.Fatalf("parent CRC %08x, want CAFEF00D", parentCRC)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the delta:\n got %+v\nwant %+v", got, want)
	}
}

// TestDecodeDeltaCanonical: a successful decode re-encodes to the exact
// input bytes — the property the chain's CRC links (which hash payload
// bytes, not structures) rest on.
func TestDecodeDeltaCanonical(t *testing.T) {
	payload, err := checkpoint.EncodeDelta(testDelta(t, testSnapshot(t), 40, 1), 42)
	if err != nil {
		t.Fatal(err)
	}
	d, parentCRC, err := checkpoint.DecodeDelta(payload)
	if err != nil {
		t.Fatal(err)
	}
	re, err := checkpoint.EncodeDelta(d, parentCRC)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(payload) {
		t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(payload), len(re))
	}
}

// TestDecodeDeltaRejectsEveryTruncation: cutting the payload anywhere must
// surface as ErrCorrupt, never a panic or a silently short delta.
func TestDecodeDeltaRejectsEveryTruncation(t *testing.T) {
	payload, err := checkpoint.EncodeDelta(testDelta(t, testSnapshot(t), 10, 2), 7)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(payload); n++ {
		if _, _, err := checkpoint.DecodeDelta(payload[:n]); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: %v, want ErrCorrupt", n, err)
		}
	}
}

// TestDecodeDeltaRejectsWrappingItemGap: a delta whose appended record has an
// item gap wrapping round past 2^63 is corrupt, not a panic or a record
// with a negative item id.
func TestDecodeDeltaRejectsWrappingItemGap(t *testing.T) {
	for i, p := range wrapGapDeltas(t) {
		if d, _, err := checkpoint.DecodeDelta(p); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("payload %d: %+v, %v; want ErrCorrupt", i, d, err)
		}
	}
}

// TestEncodeDeltaRejectsMalformed: the encoder refuses deltas that violate
// the canonical-form invariants rather than writing bytes the decoder would
// reject.
func TestEncodeDeltaRejectsMalformed(t *testing.T) {
	anchor := testSnapshot(t)
	fresh := func() *checkpoint.Delta { return testDelta(t, anchor, 10, 2) }
	cases := []struct {
		name   string
		break_ func(d *checkpoint.Delta)
	}{
		{"records not past parent", func(d *checkpoint.Delta) { d.Records = d.ParentRecords }},
		{"unsorted upserts", func(d *checkpoint.Delta) {
			u := d.Publisher.Upserts
			u[0], u[1] = u[1], u[0]
		}},
		{"duplicate upsert keys", func(d *checkpoint.Delta) {
			d.Publisher.Upserts[1].Key = d.Publisher.Upserts[0].Key
		}},
		{"duplicate evictions", func(d *checkpoint.Delta) {
			d.Publisher.Evicted = []string{"k", "k"}
		}},
		{"unsorted evictions", func(d *checkpoint.Delta) {
			d.Publisher.Evicted = []string{"z", "a"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := fresh()
			tc.break_(d)
			if _, err := checkpoint.EncodeDelta(d, 0); err == nil {
				t.Fatal("malformed delta encoded")
			}
		})
	}
	// A delta holds no bias memo, so no struct can hand the encoder a
	// ladder/bias mismatch: it writes the memo block with no rungs and no
	// biases, and a frame whose counts differ — bytes only an earlier build
	// could have written — does not decode.
	t.Run("ladder/bias mismatch", func(t *testing.T) {
		payload, err := checkpoint.EncodeDelta(fresh(), 0)
		if err != nil {
			t.Fatal(err)
		}
		start, end := deltaMemoSpan(t, payload)
		if got := payload[start:end]; string(got) != string(emptyMemo) {
			t.Fatalf("encoder wrote memo block %x, want the empty block %x", got, emptyMemo)
		}
		bad := spliceMemo(payload, start, end, legacyMemo(1, [][2]int{{40, 2}}, nil), false)
		if d, _, err := checkpoint.DecodeDelta(bad); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("frame with a ladder/bias mismatch: %+v, %v; want ErrCorrupt", d, err)
		}
	})
	if _, err := checkpoint.EncodeDelta(nil, 0); err == nil {
		t.Fatal("nil delta encoded")
	}
}

// TestApplyDeltaSlidesWindow covers both shapes of the window invariant: an
// advance smaller than the window appends-and-trims, and an advance larger
// than the window replaces the buffer wholesale with the last WindowSize
// records (the ones that did not slide straight through).
func TestApplyDeltaSlidesWindow(t *testing.T) {
	anchor := testSnapshot(t)
	w := anchor.Meta.WindowSize

	t.Run("partial advance", func(t *testing.T) {
		s := deepCopy(t, anchor)
		d := testDelta(t, s, 10, 4)
		want := append(append([]itemset.Itemset(nil), s.Window...), d.Appended...)
		want = want[len(want)-w:]
		if err := checkpoint.ApplyDelta(s, d); err != nil {
			t.Fatal(err)
		}
		if s.Records != d.Records || s.Published != d.Published || s.BadRecords != d.BadRecords {
			t.Fatalf("counters not advanced: %+v", s)
		}
		if len(s.Window) != w {
			t.Fatalf("window length %d, want %d", len(s.Window), w)
		}
		for i := range want {
			if !s.Window[i].Equal(want[i]) {
				t.Fatalf("window record %d: %v, want %v", i, s.Window[i], want[i])
			}
		}
	})

	t.Run("advance past a full window", func(t *testing.T) {
		s := deepCopy(t, anchor)
		d := testDelta(t, s, 3*w, 5) // helper caps Appended at w
		if len(d.Appended) != w {
			t.Fatalf("test delta carries %d appended, want %d", len(d.Appended), w)
		}
		if err := checkpoint.ApplyDelta(s, d); err != nil {
			t.Fatal(err)
		}
		for i := range d.Appended {
			if !s.Window[i].Equal(d.Appended[i]) {
				t.Fatalf("window record %d not replaced", i)
			}
		}
	})
}

// TestApplyDeltaMergesCache: evictions are applied before upserts, an upsert
// overwrites an existing entry or adds a new one, and the merged cache is
// re-sorted — the canonical order Encode requires.
func TestApplyDeltaMergesCache(t *testing.T) {
	s := deepCopy(t, testSnapshot(t))
	evictKey := s.Publisher.Cache[0].Key
	keptKey := s.Publisher.Cache[1].Key
	d := testDelta(t, s, 10, 6)
	d.Publisher.Upserts = []core.CacheEntry{
		{Key: keptKey, TrueSupport: 99, Sanitized: 101, LastSeen: 218},              // overwrite
		{Key: itemset.New(3, 4).Key(), TrueSupport: 7, Sanitized: 8, LastSeen: 218}, // insert
	}
	sort.Slice(d.Publisher.Upserts, func(i, j int) bool { return d.Publisher.Upserts[i].Key < d.Publisher.Upserts[j].Key })
	d.Publisher.Evicted = []string{evictKey}
	if err := checkpoint.ApplyDelta(s, d); err != nil {
		t.Fatal(err)
	}
	byKey := map[string]core.CacheEntry{}
	for i := 1; i < len(s.Publisher.Cache); i++ {
		if s.Publisher.Cache[i-1].Key >= s.Publisher.Cache[i].Key {
			t.Fatal("merged cache not strictly sorted")
		}
	}
	for _, e := range s.Publisher.Cache {
		byKey[e.Key] = e
	}
	if _, ok := byKey[evictKey]; ok {
		t.Fatal("evicted entry survived the merge")
	}
	if e := byKey[keptKey]; e.TrueSupport != 99 || e.Sanitized != 101 {
		t.Fatalf("upsert did not overwrite: %+v", e)
	}
	if _, ok := byKey[itemset.New(3, 4).Key()]; !ok {
		t.Fatal("inserted entry missing after merge")
	}
}

// TestApplyDeltaValidateThenCommit: a rejected delta leaves the snapshot
// byte-identical to before — the property chain replay relies on to degrade
// to a consistent prefix instead of a half-applied frame.
func TestApplyDeltaValidateThenCommit(t *testing.T) {
	s := deepCopy(t, testSnapshot(t))
	before, err := checkpoint.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		break_ func(d *checkpoint.Delta)
	}{
		{"parent mismatch", func(d *checkpoint.Delta) { d.ParentRecords++; d.Records++ }},
		{"published regresses", func(d *checkpoint.Delta) { d.Published = s.Published }},
		{"bad records regress", func(d *checkpoint.Delta) { d.BadRecords = s.BadRecords - 1 }},
		{"appended too short", func(d *checkpoint.Delta) { d.Appended = d.Appended[:len(d.Appended)-1] }},
		{"appended exceeds window", func(d *checkpoint.Delta) {
			d.Appended = data.WebViewLike(9).Generate(s.Meta.WindowSize + 1)
		}},
		{"publisher window regresses", func(d *checkpoint.Delta) { d.Publisher.Window = s.Publisher.Window - 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := testDelta(t, s, 10, 7)
			tc.break_(d)
			if err := checkpoint.ApplyDelta(s, d); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("ApplyDelta = %v, want ErrCorrupt", err)
			}
			after, err := checkpoint.Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Fatal("rejected delta mutated the snapshot")
			}
		})
	}
	// The mismatch the struct cases can no longer express reaches a replay
	// only as bytes: a legacy frame whose memo has fewer biases than ladder
	// rungs. The chain replay rejects it before applying anything. The same
	// frame with a well-formed memo applies, so the memo is what fails.
	t.Run("ladder/bias mismatch", func(t *testing.T) {
		anchorCRC := crc32.ChecksumIEEE(before)
		payload, err := checkpoint.EncodeDelta(testDelta(t, s, 10, 7), anchorCRC)
		if err != nil {
			t.Fatal(err)
		}
		start, end := deltaMemoSpan(t, payload)
		ladder := [][2]int{{40, 2}, {31, 5}}
		good := chainSegment(s.Records, anchorCRC, spliceMemo(payload, start, end, legacyMemo(1, ladder, []int{3, -2}), false))
		if n := checkpoint.ApplyChain(deepCopy(t, s), good, s.Records, anchorCRC, t.Errorf); n != 1 {
			t.Fatalf("applied %d frames with a well-formed legacy memo, want 1", n)
		}
		bad := chainSegment(s.Records, anchorCRC, spliceMemo(payload, start, end, legacyMemo(1, ladder, []int{3}), false))
		if n := checkpoint.ApplyChain(s, bad, s.Records, anchorCRC, nil); n != 0 {
			t.Fatalf("applied %d frames with a ladder/bias mismatch, want 0", n)
		}
		if string(mustEncode(t, s)) != string(before) {
			t.Fatal("rejected delta mutated the snapshot")
		}
	})
}

// --- chain segment tests, driven through the Store ---

// chainStore saves an anchor and appends frames, returning the store, the
// anchor snapshot and the expected recovered snapshot (anchor + deltas,
// computed through ApplyDelta on an independent copy).
func chainStore(t *testing.T, dir string, frames int) (*checkpoint.Store, *checkpoint.Snapshot, *checkpoint.Snapshot) {
	t.Helper()
	st, err := checkpoint.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	anchor := testSnapshot(t)
	if err := st.Save(anchor); err != nil {
		t.Fatal(err)
	}
	want := deepCopy(t, anchor)
	for i := 0; i < frames; i++ {
		d := testDelta(t, want, 10, uint64(i+1))
		if err := st.AppendDelta(d); err != nil {
			t.Fatalf("appending frame %d: %v", i+1, err)
		}
		if err := checkpoint.ApplyDelta(want, d); err != nil {
			t.Fatalf("applying frame %d to the model: %v", i+1, err)
		}
	}
	return st, anchor, want
}

// TestStoreDeltaChainRecovery: a full save plus appended frames recovers to
// exactly the state of applying every delta, and the ChainDetail names the
// ANCHOR position — the WAL-truncation floor — not the recovered tip.
func TestStoreDeltaChainRecovery(t *testing.T) {
	st, anchor, want := chainStore(t, t.TempDir(), 3)
	if got := st.ChainFrames(); got != 3 {
		t.Fatalf("ChainFrames = %d, want 3", got)
	}
	s, det, err := st.LatestDetail()
	if err != nil {
		t.Fatal(err)
	}
	if det.Frames != 3 || det.AnchorRecords != anchor.Records {
		t.Fatalf("ChainDetail = %+v, want 3 frames anchored at %d", det, anchor.Records)
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("recovered snapshot diverges from the applied chain:\n got %+v\nwant %+v", s, want)
	}
	// A second recovery sees the same bytes — nothing on disk moved.
	s2, _, err := st.LatestDetail()
	if err != nil || !reflect.DeepEqual(s2, want) {
		t.Fatalf("second recovery diverged: %v", err)
	}
}

// TestStoreDeltaChainSurvivesReopen: recovery does not depend on the writing
// process's in-memory chain state — a brand-new store over the same
// directory reads the same snapshot, but cannot EXTEND the chain (it never
// crosses a restart; the first save of a new run must be full).
func TestStoreDeltaChainSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	_, _, want := chainStore(t, dir, 2)
	st2, err := checkpoint.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, det, err := st2.LatestDetail()
	if err != nil {
		t.Fatal(err)
	}
	if det.Frames != 2 || !reflect.DeepEqual(s, want) {
		t.Fatalf("reopened recovery = %d frames, snapshot match %v", det.Frames, reflect.DeepEqual(s, want))
	}
	d := testDelta(t, want, 10, 9)
	if err := st2.AppendDelta(d); err == nil ||
		!strings.Contains(err.Error(), "without an anchor") {
		t.Fatalf("AppendDelta on a reopened store = %v, want anchor error", err)
	}
}

func TestStoreAppendDeltaParentMismatch(t *testing.T) {
	st, _, want := chainStore(t, t.TempDir(), 1)
	d := testDelta(t, want, 10, 9)
	d.ParentRecords-- // does not extend the tip
	d.Records--
	if err := st.AppendDelta(d); err == nil || !strings.Contains(err.Error(), "does not extend chain tip") {
		t.Fatalf("AppendDelta with stale parent = %v, want chain-tip error", err)
	}
}

// TestStoreTornDeltaKeepsPrefix: a simulated process death mid-append leaves
// half a frame at the segment tail; recovery keeps every frame before it,
// with a warning naming the tear.
func TestStoreTornDeltaKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := chainStore(t, dir, 2)
	var warnings []string
	st.Logf = func(format string, args ...any) {
		warnings = append(warnings, format)
	}
	// Save counter: 1 full + 2 deltas done; the next append is save 4.
	plan := &faultinject.CrashPlan{Point: checkpoint.CrashTornDelta, OnSave: 4}
	st.CrashHook = plan.Hook()
	s, det, err := st.LatestDetail()
	if err != nil {
		t.Fatal(err)
	}
	tip := s.Records
	d := testDelta(t, s, 10, 8)
	if err := st.AppendDelta(d); !errors.Is(err, checkpoint.ErrInjectedCrash) {
		t.Fatalf("AppendDelta under torn-delta plan = %v, want ErrInjectedCrash", err)
	}
	s, det, err = st.LatestDetail()
	if err != nil {
		t.Fatal(err)
	}
	if det.Frames != 2 || s.Records != tip {
		t.Fatalf("recovery after torn append = %d frames at records %d, want 2 frames at %d", det.Frames, s.Records, tip)
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "torn frame") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no torn-frame warning logged: %q", warnings)
	}
}

// TestStoreDeltaChainDegradesPastCorruption: a bit flip in an interior frame
// keeps the frames before it and drops everything after — the WAL-tail
// contract applied to the chain.
func TestStoreDeltaChainDegradesPastCorruption(t *testing.T) {
	dir := t.TempDir()
	st, anchor, _ := chainStore(t, dir, 3)
	st.Logf = func(string, ...any) {}
	seg := findOne(t, dir, "delta-*.bfdl")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the segment body — inside frame 2 of 3
	// for any realistic frame size; assert only the prefix property.
	if err := faultinject.FlipByte(seg, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	s, det, err := st.LatestDetail()
	if err != nil {
		t.Fatal(err)
	}
	if det.Frames >= 3 {
		t.Fatalf("corrupt chain still applied %d frames", det.Frames)
	}
	if s.Records <= anchor.Records && det.Frames > 0 {
		t.Fatalf("frames applied but records did not advance past the anchor: %+v", det)
	}
	// The recovered prefix must itself be a valid snapshot.
	if _, err := checkpoint.Encode(s); err != nil {
		t.Fatalf("recovered prefix does not re-encode: %v", err)
	}
}

// TestStoreCrossLinkedSegmentIgnored: a segment whose header does not bind
// to the full snapshot beside it (restored from a different backup, say)
// applies nothing; recovery falls back to the bare anchor.
func TestStoreCrossLinkedSegmentIgnored(t *testing.T) {
	dir := t.TempDir()
	st, anchor, _ := chainStore(t, dir, 2)
	var warnings []string
	st.Logf = func(format string, args ...any) {
		warnings = append(warnings, format)
	}
	seg := findOne(t, dir, "delta-*.bfdl")
	// Corrupt the anchor-CRC field of the segment header (the last 4 header
	// bytes): the chain now claims a different anchor.
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xDE, 0xAD, 0xBE, 0xEF}, int64(len("BFLYCKD2")+4+8)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, det, err := st.LatestDetail()
	if err != nil {
		t.Fatal(err)
	}
	if det.Frames != 0 || s.Records != anchor.Records {
		t.Fatalf("cross-linked segment applied %d frames at records %d, want bare anchor %d",
			det.Frames, s.Records, anchor.Records)
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "cross-linked") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cross-link warning logged: %q", warnings)
	}
}

// TestStoreResaveRemovesStaleSegment: a restarted process re-saving a full
// at a position an older incarnation also checkpointed must remove the old
// incarnation's chain segment — appending to it would splice two runs.
func TestStoreResaveRemovesStaleSegment(t *testing.T) {
	dir := t.TempDir()
	_, anchor, _ := chainStore(t, dir, 2)
	if findOne(t, dir, "delta-*.bfdl") == "" {
		t.Fatal("chain segment missing before the re-save")
	}
	st2, err := checkpoint.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Save(anchor); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "delta-*.bfdl")); len(segs) != 0 {
		t.Fatalf("stale segment survived the re-save: %v", segs)
	}
	s, det, err := st2.LatestDetail()
	if err != nil || det.Frames != 0 || s.Records != anchor.Records {
		t.Fatalf("recovery after re-save = %+v, %+v, %v; want the bare anchor", s, det, err)
	}
}

// TestStorePruneSweepsSegments: pruning a full generation removes its chain
// segment too, and orphan segments (no matching full at all) are swept.
func TestStorePruneSweepsSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := checkpoint.NewStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	// An orphan segment from some lost incarnation.
	orphan := filepath.Join(dir, "delta-0000000000000001.bfdl")
	if err := os.WriteFile(orphan, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := testSnapshot(t)
	for i := 0; i < 3; i++ {
		s := deepCopy(t, base)
		s.Records = base.Records + uint64(i)*100
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendDelta(testDelta(t, s, 10, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := st.Generations()
	if err != nil || len(gens) != 2 {
		t.Fatalf("generations after pruning = %v, %v; want 2", gens, err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "delta-*.bfdl"))
	if len(segs) != 2 {
		t.Fatalf("segments after pruning = %v, want exactly the survivors' 2", segs)
	}
	for _, seg := range segs {
		if seg == orphan {
			t.Fatal("orphan segment survived the sweep")
		}
	}
}

// TestStoreWipeRemovesSegments: the fresh-create reset clears chains too.
func TestStoreWipeRemovesSegments(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := chainStore(t, dir, 2)
	if err := st.Wipe(); err != nil {
		t.Fatal(err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.bf*"))
	if len(left) != 0 {
		t.Fatalf("files survive Wipe: %v", left)
	}
}

// TestApplyChainRejectsBadHeaders drives ApplyChain directly with hand-built
// segment bytes: short header, wrong magic, future version.
func TestApplyChainRejectsBadHeaders(t *testing.T) {
	anchor := testSnapshot(t)
	anchorCRC := uint32(0x12345678)
	header := func(version uint32, records uint64, crc uint32) []byte {
		b := []byte("BFLYCKD2")
		b = binary.LittleEndian.AppendUint32(b, version)
		b = binary.LittleEndian.AppendUint64(b, records)
		return binary.LittleEndian.AppendUint32(b, crc)
	}
	cases := []struct {
		name string
		seg  []byte
	}{
		{"empty", nil},
		{"short header", []byte("BFLYCKD2")},
		{"bad magic", append([]byte("NOTACHKD"), header(2, anchor.Records, anchorCRC)[8:]...)},
		{"future version", header(checkpoint.DeltaVersion+1, anchor.Records, anchorCRC)},
		{"wrong anchor records", header(checkpoint.DeltaVersion, anchor.Records+1, anchorCRC)},
		{"wrong anchor crc", header(checkpoint.DeltaVersion, anchor.Records, anchorCRC+1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := deepCopy(t, anchor)
			if n := checkpoint.ApplyChain(s, tc.seg, anchor.Records, anchorCRC, nil); n != 0 {
				t.Fatalf("applied %d frames from a %s segment", n, tc.name)
			}
			if !reflect.DeepEqual(s, anchor) {
				t.Fatal("rejected segment mutated the snapshot")
			}
		})
	}
}

// findOne globs for exactly one match.
func findOne(t *testing.T, dir, glob string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, glob))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("%s: %d matches (%v), want 1", glob, len(paths), paths)
	}
	return paths[0]
}
