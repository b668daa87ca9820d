package checkpoint_test

// Checkpoints an earlier build wrote carry its cross-window bias memo — the
// last window's FEC ladder and biases, reused when the next window's ladder
// repeated — in a block right after the publisher's window counter and RNG
// cursor. This build writes that block empty and drops a non-empty one on
// read. The helpers below locate and forge the block, so the tests can check
// both halves byte for byte.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fec"
	"repro/internal/frame"
	"repro/internal/itemset"
	"repro/internal/mining/moment"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// emptyMemo is the memo block this build writes: a zero bias-reuse counter,
// no ladder rungs and no biases.
var emptyMemo = []byte{0, 0, 0}

// legacyMemo encodes a memo block as earlier builds wrote it: the reuse
// counter, the ladder's (support, size) rungs and the biases, each integer
// a zigzag varint behind a uvarint count.
func legacyMemo(reuses int, ladder [][2]int, biases []int) []byte {
	b := binary.AppendVarint(nil, int64(reuses))
	b = binary.AppendUvarint(b, uint64(len(ladder)))
	for _, r := range ladder {
		b = binary.AppendVarint(b, int64(r[0]))
		b = binary.AppendVarint(b, int64(r[1]))
	}
	b = binary.AppendUvarint(b, uint64(len(biases)))
	for _, x := range biases {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// snapshotMemoSpan returns where the memo block of data, a v1 snapshot that
// decodes, starts and ends. The block sits right before the cache list, so
// it starts where the same snapshot re-encoded with an empty cache puts its
// own empty block: before a 1-byte cache count and the 4-byte checksum.
func snapshotMemoSpan(tb testing.TB, data []byte) (start, end int) {
	tb.Helper()
	s, err := checkpoint.Decode(data)
	if err != nil {
		tb.Fatal(err)
	}
	s.Publisher.Cache = nil
	enc, err := checkpoint.Encode(s)
	if err != nil {
		tb.Fatal(err)
	}
	start = len(enc) - 4 - 1 - len(emptyMemo)
	return start, memoEnd(data, start)
}

// deltaMemoSpan is snapshotMemoSpan for a delta frame payload, whose memo
// block comes before the upsert and eviction counts.
func deltaMemoSpan(tb testing.TB, payload []byte) (start, end int) {
	tb.Helper()
	d, parentCRC, err := checkpoint.DecodeDelta(payload)
	if err != nil {
		tb.Fatal(err)
	}
	d.Publisher.Upserts, d.Publisher.Evicted = nil, nil
	enc, err := checkpoint.EncodeDelta(d, parentCRC)
	if err != nil {
		tb.Fatal(err)
	}
	start = len(enc) - 2 - len(emptyMemo)
	return start, memoEnd(payload, start)
}

// memoEnd walks the well-formed memo block at b[start:] and returns the
// offset past it.
func memoEnd(b []byte, start int) int {
	off := start
	next := func() uint64 {
		v, n := binary.Uvarint(b[off:])
		off += n
		return v
	}
	// The reuse counter, each rung's support and size, then the biases.
	next()
	for range 2 * next() {
		next()
	}
	for range next() {
		next()
	}
	return off
}

// spliceMemo returns data with its bytes [start, end) replaced by memo. A v1
// file (sealed) gets its checksum recomputed; a frame payload has none.
func spliceMemo(data []byte, start, end int, memo []byte, sealed bool) []byte {
	body := data
	if sealed {
		body = data[:len(data)-4]
	}
	out := append(append(append([]byte(nil), body[:start]...), memo...), body[end:]...)
	if sealed {
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	}
	return out
}

// chainSegment builds a chain segment bound to the anchor at records whose
// file bytes hash to crc, one frame per payload.
func chainSegment(records uint64, crc uint32, payloads ...[]byte) []byte {
	b := []byte("BFLYCKD2")
	b = binary.LittleEndian.AppendUint32(b, checkpoint.DeltaVersion)
	b = binary.LittleEndian.AppendUint64(b, records)
	b = binary.LittleEndian.AppendUint32(b, crc)
	for _, p := range payloads {
		start := len(b)
		b = append(frame.Begin(b), p...)
		frame.Seal(b, start)
	}
	return b
}

// chainPayloads splits a chain segment into its frame payloads.
func chainPayloads(tb testing.TB, seg []byte) [][]byte {
	tb.Helper()
	var out [][]byte
	for rest := seg[checkpoint.SegHeaderLen:]; len(rest) > 0; {
		payload, _, n, err := frame.Split(rest, 0, checkpoint.ErrCorrupt)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, payload)
		rest = rest[n:]
	}
	return out
}

// TestLegacyGoldensDecodeRestoreAndApply: the snapshot and the chain an
// earlier build wrote, each with a bias memo, still decode to the state they
// hold, restore into a publisher and apply, and the snapshot re-encodes as
// this build's golden file: the input with its memo block emptied. (The
// fuzz targets' seeds hold every legacy frame to the same relation.)
func TestLegacyGoldensDecodeRestoreAndApply(t *testing.T) {
	legacy := readGolden(t, legacySnapshot)
	start, end := snapshotMemoSpan(t, legacy)
	if end-start == len(emptyMemo) {
		t.Fatal("the legacy snapshot golden carries no memo")
	}
	s, err := checkpoint.Decode(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, testSnapshot(t)) {
		t.Fatalf("legacy golden decodes to\n %+v\nwant %+v", s, testSnapshot(t))
	}
	golden := readGolden(t, goldenSnapshot)
	sameBytes(t, "legacy snapshot with its memo emptied", spliceMemo(legacy, start, end, emptyMemo, true), golden)
	sameBytes(t, "re-encoded legacy snapshot", mustEncode(t, s), golden)

	m := s.Meta
	pub, err := core.NewPublisher(core.Params{Epsilon: m.Epsilon, Delta: m.Delta, MinSupport: m.MinSupport,
		VulnSupport: m.VulnSupport}, core.Hybrid{Lambda: 0.4}, rng.New(m.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Restore(&s.Publisher); err != nil {
		t.Fatal(err)
	}
	if got := pub.Snapshot(); !reflect.DeepEqual(*got, s.Publisher) {
		t.Fatalf("restored publisher snapshots to\n %+v\nwant %+v", *got, s.Publisher)
	}

	seg := readGolden(t, legacyChain)
	for i, p := range chainPayloads(t, seg) {
		if start, end := deltaMemoSpan(t, p); end-start == len(emptyMemo) {
			t.Fatalf("legacy chain frame %d carries no memo", i+1)
		}
	}
	_, _, want := chainStore(t, t.TempDir(), 3)
	if n := checkpoint.ApplyChain(s, seg, s.Records, crc32.ChecksumIEEE(legacy), t.Errorf); n != 3 {
		t.Fatalf("legacy chain applied %d frames, want 3", n)
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("legacy chain decodes to\n %+v\nwant %+v", s, want)
	}
}

// TestDecodeRejectsLegacyMemoMismatch: a legacy memo is dropped, but its
// bytes come from outside the program and keep the checks earlier builds
// made. A snapshot or a delta frame whose memo has fewer or more biases than
// ladder rungs, or a negative rung support, is corrupt; a well-formed memo
// decodes to the state without it.
func TestDecodeRejectsLegacyMemoMismatch(t *testing.T) {
	snap := mustEncode(t, testSnapshot(t))
	start, end := snapshotMemoSpan(t, snap)
	payload, err := checkpoint.EncodeDelta(testDelta(t, testSnapshot(t), 10, 1), 7)
	if err != nil {
		t.Fatal(err)
	}
	dstart, dend := deltaMemoSpan(t, payload)
	ladder := [][2]int{{40, 2}, {31, 5}}
	for _, memo := range [][]byte{
		legacyMemo(12, ladder, []int{3}),
		legacyMemo(12, ladder, []int{3, -2, 1}),
		legacyMemo(12, ladder, nil),
		legacyMemo(12, [][2]int{{-1, 2}}, []int{3}),
	} {
		if s, err := checkpoint.Decode(spliceMemo(snap, start, end, memo, true)); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("snapshot with memo %x: %+v, %v; want ErrCorrupt", memo, s, err)
		}
		if d, _, err := checkpoint.DecodeDelta(spliceMemo(payload, dstart, dend, memo, false)); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("delta with memo %x: %+v, %v; want ErrCorrupt", memo, d, err)
		}
	}

	memo := legacyMemo(12, ladder, []int{3, -2})
	s, err := checkpoint.Decode(spliceMemo(snap, start, end, memo, true))
	if err != nil || !reflect.DeepEqual(s, testSnapshot(t)) {
		t.Errorf("snapshot with a well-formed memo: %+v, %v; want the snapshot without it", s, err)
	}
	d, parentCRC, err := checkpoint.DecodeDelta(spliceMemo(payload, dstart, dend, memo, false))
	if err != nil {
		t.Fatalf("delta with a well-formed memo: %v", err)
	}
	if re, err := checkpoint.EncodeDelta(d, parentCRC); err != nil || string(re) != string(payload) {
		t.Errorf("delta with a well-formed memo re-encodes to %d bytes (%v); want the %d-byte frame without it",
			len(re), err, len(payload))
	}
}

// errStop ends a run at a window boundary, like a process dying there.
var errStop = errors.New("stopped")

// TestRestoreLegacyMemoPublishesSameBytes: a run resumed from a checkpoint
// whose legacy memo names the next window's exact FEC ladder — the case in
// which an earlier build reused the memo's biases — but carries biases the
// DP would not choose publishes the same windows as an uninterrupted run:
// the memo never changes a published value.
func TestRestoreLegacyMemoPublishesSameBytes(t *testing.T) {
	const window, every, kill = 60, 4, 20
	params := core.Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5}
	scheme := core.Hybrid{Lambda: 0.4}
	records := data.WebViewLike(17).Generate(300)
	cfg := pipeline.Config{WindowSize: window, Params: params, Scheme: scheme, Seed: 17,
		PublishEvery: every, Workers: 1}
	run := func(cfg pipeline.Config, recs []itemset.Itemset, limit int) []string {
		t.Helper()
		p, err := pipeline.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		_, err = p.RunContext(context.Background(), pipeline.SliceSource(recs), func(w pipeline.Window) error {
			if len(out) == limit {
				return errStop
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "window@%d\n", w.Position)
			for _, it := range w.Output.Items {
				fmt.Fprintf(&sb, "  %v %d\n", it.Set, it.Support)
			}
			out = append(out, sb.String())
			return nil
		})
		if err != nil && !errors.Is(err, errStop) {
			t.Fatal(err)
		}
		return out
	}
	ref := run(cfg, records, -1)

	mem := &checkpoint.Memory{}
	ckpt := cfg
	ckpt.Checkpoints, ckpt.CheckpointEvery = mem, 1
	if head := run(ckpt, records, kill); len(head) != kill {
		t.Fatalf("checkpointed run delivered %d windows, want %d", len(head), kill)
	}
	snap := mem.Latest()

	// The next window's ladder, mined as the resumed run mines it, and
	// biases one above the DP's choice for every class.
	next := int(snap.Records) + every
	miner := moment.New(window, params.MinSupport)
	for _, rec := range records[next-window : next] {
		miner.Push(rec)
	}
	classes := fec.Partition(miner.Frequent())
	ladder := make([][2]int, len(classes))
	biases := scheme.Biases(classes, params)
	for i, c := range classes {
		ladder[i] = [2]int{c.Support, c.Size()}
		biases[i]++
	}
	enc := mustEncode(t, snap)
	start, end := snapshotMemoSpan(t, enc)
	legacy, err := checkpoint.Decode(spliceMemo(enc, start, end, legacyMemo(0, ladder, biases), true))
	if err != nil {
		t.Fatal(err)
	}

	resume := cfg
	resume.Resume = legacy
	tail := run(resume, records[legacy.Records:], -1)
	if len(tail) != len(ref)-kill {
		t.Fatalf("resumed run published %d windows, want %d", len(tail), len(ref)-kill)
	}
	for i, w := range tail {
		if w != ref[kill+i] {
			t.Fatalf("resumed window %d differs from the uninterrupted run:\n got %s\nwant %s", i, w, ref[kill+i])
		}
	}
}
