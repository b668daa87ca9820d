package checkpoint_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/itemset"
)

// FuzzCheckpointDecode pins the decoder's safety contract: whatever the
// bytes — torn, bit-flipped, fabricated, adversarial — Decode must return
// either a valid snapshot or an error wrapping ErrCorrupt/ErrVersion. It
// must never panic, and a successful decode must re-encode to the exact
// input (the format is canonical), so corruption can never round-trip
// silently. The one exception is a bias memo an earlier build wrote: the
// re-encode is then the input with that block emptied, and nothing else
// changed.
func FuzzCheckpointDecode(f *testing.F) {
	valid, err := checkpoint.Encode(testSnapshot(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn write
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-2] ^= 0xFF // damaged checksum
	f.Add(flipped)
	future := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(future[8:], checkpoint.Version+1)
	binary.LittleEndian.PutUint32(future[len(future)-4:],
		crc32.ChecksumIEEE(future[:len(future)-4]))
	f.Add(future) // well-formed file from a newer build
	f.Add([]byte("BFLYCKPT"))
	f.Add([]byte{})
	// Delta-chain material: a v2 segment handed to the v1 decoder must be
	// cleanly rejected (different magic), whole, truncated or cross-linked.
	seg := testSegment(f)
	f.Add(seg)
	f.Add(seg[:len(seg)/2])
	crossed := append([]byte(nil), seg...)
	crossed[20] ^= 0xFF // anchor-CRC field of the segment header
	f.Add(crossed)
	for _, b := range wrapGapSnapshots(f) {
		f.Add(b)
	}
	f.Add(readGolden(f, legacySnapshot)) // carries a bias memo

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := checkpoint.Decode(data)
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) && !errors.Is(err, checkpoint.ErrVersion) {
				t.Fatalf("decode error outside the contract: %v", err)
			}
			if s != nil {
				t.Fatal("snapshot returned alongside an error")
			}
			return
		}
		re, err := checkpoint.Encode(s)
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		// Exact when the memo block is empty, as every snapshot this build
		// writes has it.
		start, end := snapshotMemoSpan(t, data)
		if string(re) != string(spliceMemo(data, start, end, emptyMemo, true)) {
			t.Fatalf("decode/encode not canonical: %d bytes in (memo block %d bytes), %d out",
				len(data), end-start, len(re))
		}
	})
}

// testSegment builds a real two-frame chain segment through the store and
// returns its bytes. Deterministic: testSnapshot and testDelta derive all
// content from fixed seeds.
func testSegment(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	st, err := checkpoint.NewStore(dir, 3)
	if err != nil {
		f.Fatal(err)
	}
	s := testSnapshot(f)
	if err := st.Save(s); err != nil {
		f.Fatal(err)
	}
	tip := deepCopy(f, s)
	for i := uint64(1); i <= 2; i++ {
		d := testDelta(f, tip, 10, i)
		if err := st.AppendDelta(d); err != nil {
			f.Fatal(err)
		}
		if err := checkpoint.ApplyDelta(tip, d); err != nil {
			f.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "delta-*.bfdl"))
	if err != nil || len(segs) != 1 {
		f.Fatalf("segment glob = %v, %v", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	return seg
}

// FuzzCheckpointDeltaChain pins the chain replayer's safety contract:
// whatever the segment bytes — torn appends, bit flips, frames spliced from
// another chain, fabricated headers — ApplyChain must never panic, must
// apply only a consistent prefix (the result still re-encodes as a valid
// snapshot), and must apply nothing at all when the header does not bind to
// the anchor. DecodeDelta is held to the same canonical-format contract as
// the v1 decoder along the way, legacy memo included.
func FuzzCheckpointDeltaChain(f *testing.F) {
	seg := testSegment(f)
	f.Add(seg)
	f.Add(seg[:len(seg)-7]) // torn mid-frame, like a crash during AppendDelta
	f.Add(seg[:checkpoint.SegHeaderLen])
	orphan := append([]byte(nil), seg...)
	binary.LittleEndian.PutUint64(orphan[12:], 999) // anchored to a full that never existed
	f.Add(orphan)
	crossed := append([]byte(nil), seg...)
	crossed[checkpoint.SegHeaderLen+5] ^= 0xFF // damage the first frame's parent fingerprint
	f.Add(crossed)
	f.Add([]byte("BFLYCKD2"))
	f.Add([]byte{})
	for _, p := range wrapGapDeltas(f) {
		f.Add(p)
	}
	legacy := readGolden(f, legacyChain) // every frame carries a bias memo
	f.Add(legacy)
	for _, p := range chainPayloads(f, legacy) {
		f.Add(p)
	}

	anchorBytes, err := checkpoint.Encode(testSnapshot(f))
	if err != nil {
		f.Fatal(err)
	}
	anchorCRC := crc32.ChecksumIEEE(anchorBytes)

	f.Fuzz(func(t *testing.T, data []byte) {
		anchor, err := checkpoint.Decode(anchorBytes)
		if err != nil {
			t.Fatal(err)
		}
		applied := checkpoint.ApplyChain(anchor, data, anchor.Records, anchorCRC, nil)
		if applied < 0 {
			t.Fatalf("ApplyChain applied %d frames", applied)
		}
		if applied == 0 && anchorCRC != crc32.ChecksumIEEE(mustEncode(t, anchor)) {
			t.Fatal("rejected segment mutated the anchor")
		}
		// Whatever prefix was applied, the result is a coherent snapshot.
		mustEncode(t, anchor)

		// The frame payload decoder shares the v1 contract: error wrapping
		// ErrCorrupt, or a canonical re-encode.
		d, parentCRC, err := checkpoint.DecodeDelta(data)
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("DecodeDelta error outside the contract: %v", err)
			}
			return
		}
		re, err := checkpoint.EncodeDelta(d, parentCRC)
		if err != nil {
			t.Fatalf("re-encoding a decoded delta: %v", err)
		}
		start, end := deltaMemoSpan(t, data)
		if string(re) != string(spliceMemo(data, start, end, emptyMemo, false)) {
			t.Fatalf("delta decode/encode not canonical: %d bytes in (memo block %d bytes), %d out",
				len(data), end-start, len(re))
		}
	})
}

// spliceGap returns a with its first byte that differs from b — an item gap
// byte, when the two encode itemsets that differ only in one gap — replaced
// by gap's uvarint.
func spliceGap(a, b []byte, gap uint64) []byte {
	i := 0
	for a[i] == b[i] {
		i++
	}
	out := append([]byte(nil), a[:i]...)
	out = binary.AppendUvarint(out, gap)
	return append(out, a[i+1:]...)
}

// wrapGapSnapshots returns checksum-valid v1 snapshots whose one window
// record has uvarint item gaps past 2^63, so adding them in int64 wraps
// round: gaps 5, 2^64−1 step back onto item 5, and a lone 2^64−42 lands on
// id −42. Both must be corrupt.
func wrapGapSnapshots(tb testing.TB) [][]byte {
	body := func(items ...itemset.Item) []byte {
		s := testSnapshot(tb)
		s.Window = []itemset.Itemset{itemset.New(items...)}
		enc, err := checkpoint.Encode(s)
		if err != nil {
			tb.Fatal(err)
		}
		return enc[:len(enc)-4]
	}
	seal := func(b []byte) []byte {
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	return [][]byte{
		seal(spliceGap(body(5, 6), body(5, 7), math.MaxUint64)),
		seal(spliceGap(body(0), body(1), math.MaxUint64-41)),
	}
}

// wrapGapDeltas returns the delta frame payloads with the same two appended
// records as wrapGapSnapshots.
func wrapGapDeltas(tb testing.TB) [][]byte {
	payload := func(items ...itemset.Item) []byte {
		d := testDelta(tb, testSnapshot(tb), 10, 1)
		d.Appended = []itemset.Itemset{itemset.New(items...)}
		p, err := checkpoint.EncodeDelta(d, 7)
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	return [][]byte{
		spliceGap(payload(5, 6), payload(5, 7), math.MaxUint64),
		spliceGap(payload(0), payload(1), math.MaxUint64-41),
	}
}

func mustEncode(t *testing.T, s *checkpoint.Snapshot) []byte {
	t.Helper()
	enc, err := checkpoint.Encode(s)
	if err != nil {
		t.Fatalf("snapshot no longer encodes: %v", err)
	}
	return enc
}
