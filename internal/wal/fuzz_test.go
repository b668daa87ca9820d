package wal

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/itemset"
)

// FuzzWALDecode throws arbitrary bytes at the frame scanner. Invariants:
// the decoder never panics, never yields a record past the last fully-valid
// frame (every yielded record re-validates from the reported good prefix),
// yielded lines are strictly sequential — whatever the bytes claim — and a
// validating scan that decodes no record in full accepts exactly the same
// frames, with the same coordinates and kinds.
func FuzzWALDecode(f *testing.F) {
	frame := func(recs ...Record) []byte {
		var b []byte
		for _, r := range recs {
			b = append(b, buildFrame(r)...)
		}
		return b
	}
	good := goodRec(1, 1, 3, 7, 8)
	bad := Record{Line: 2, Seq: 1, Bad: &data.ParseError{Line: 2, Token: "t\x00", Err: data.ErrTokenNUL}}
	two := frame(good, bad)

	// Seed corpus: the corruption shapes recovery must absorb.
	f.Add(two)              // fully valid
	f.Add(two[:len(two)-3]) // torn tail: final frame cut mid-payload
	f.Add(func() []byte {   // bad CRC on the final frame
		b := append([]byte(nil), two...)
		b[len(b)-1] ^= 0xFF
		return b
	}())
	f.Add([]byte{})                       // empty segment body
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}) // zero-length payload, zero checksum
	f.Add(func() []byte {                 // length header claiming more than MaxFrame
		var b []byte
		b = binary.LittleEndian.AppendUint32(b, MaxFrame+1)
		b = binary.LittleEndian.AppendUint32(b, 0)
		return append(b, two...)
	}())
	f.Add(func() []byte { // a whole segment file, header included (misaligned scan)
		var b []byte
		b = append(b, segMagic...)
		b = binary.LittleEndian.AppendUint64(b, 1)
		return append(b, two...)
	}())
	f.Add(func() []byte { // cross-segment boundary: frames of two bases butted together
		b := frame(goodRec(1, 1, 2), goodRec(2, 2, 4))
		return append(b, frame(goodRec(3, 3, 5), goodRec(4, 4, 6))...)
	}())
	f.Add(frame(goodRec(1, 1), goodRec(5, 2))) // line gap: valid frames, broken continuity
	f.Add(frame(Record{Line: 1, Seq: 0, Bad: &data.ParseError{Line: 1, Token: "", Err: nil}}))

	f.Fuzz(func(t *testing.T, b []byte) {
		var recs []Record
		frames, goodLen, err := scanFrames(b, 0, 0, math.MaxUint64, func(r Record) { recs = append(recs, r) })
		if goodLen > len(b) {
			t.Fatalf("good prefix %d exceeds input %d", goodLen, len(b))
		}
		if frames != len(recs) {
			t.Fatalf("reported %d frames, yielded %d records", frames, len(recs))
		}
		if err == nil && goodLen != len(b) {
			t.Fatalf("clean scan consumed %d of %d bytes", goodLen, len(b))
		}
		// Nothing beyond the last valid frame: rescanning the reported good
		// prefix must yield exactly the same records, cleanly.
		recs2 := recs[:0:0]
		frames2, goodLen2, err2 := scanFrames(b[:goodLen], 0, 0, math.MaxUint64, func(r Record) { recs2 = append(recs2, r) })
		if err2 != nil || frames2 != frames || goodLen2 != goodLen {
			t.Fatalf("good prefix does not rescan cleanly: frames %d/%d, len %d/%d, err %v",
				frames2, frames, goodLen2, goodLen, err2)
		}
		var lite []Record
		frames3, goodLen3, err3 := scanFrames(b, 0, 0, 0, func(r Record) { lite = append(lite, r) })
		if frames3 != frames || goodLen3 != goodLen || (err3 == nil) != (err == nil) {
			t.Fatalf("validating scan disagrees: frames %d/%d, len %d/%d, err %v/%v",
				frames3, frames, goodLen3, goodLen, err3, err)
		}
		for i, r := range lite {
			if r.Line != recs[i].Line || r.Seq != recs[i].Seq || (r.Bad == nil) != (recs[i].Bad == nil) {
				t.Fatalf("validating scan frame %d: %+v, full decode %+v", i, r, recs[i])
			}
		}
		prev := uint64(0)
		for i, r := range recs {
			if r.Line != prev+1 {
				t.Fatalf("record %d: line %d after %d", i, r.Line, prev)
			}
			prev = r.Line
			if r.Bad == nil {
				// Decoded itemsets are canonical: strictly increasing items.
				items := r.Rec.Items()
				for j := 1; j < len(items); j++ {
					if items[j] <= items[j-1] {
						t.Fatalf("record %d: non-canonical itemset %v", i, items)
					}
				}
			}
		}
		// Round trip: re-encoding what was decoded reproduces frames that
		// decode to the same records.
		var re []byte
		for _, r := range recs {
			re = append(re, buildFrame(r)...)
		}
		n3 := 0
		if _, _, err := scanFrames(re, 0, 0, math.MaxUint64, func(Record) { n3++ }); err != nil || n3 != len(recs) {
			t.Fatalf("re-encoded records do not round-trip: %d of %d, err %v", n3, len(recs), err)
		}
	})
}

// wrapGapPayloads are good-record payloads whose uvarint item gaps exceed
// 2^63, so adding them in int64 wraps round: gaps 5, 2^64−1 step back onto
// item 5, and a lone 2^64−42 lands on id −42. Both must be corrupt.
func wrapGapPayloads() [][]byte {
	payload := func(gaps ...uint64) []byte {
		b := binary.AppendUvarint(nil, 1) // line
		b = append(b, kindGood)
		b = binary.AppendUvarint(b, 1) // seq
		b = binary.AppendUvarint(b, uint64(len(gaps)))
		for _, g := range gaps {
			b = binary.AppendUvarint(b, g)
		}
		return b
	}
	return [][]byte{payload(5, math.MaxUint64), payload(math.MaxUint64 - 41)}
}

// FuzzWALPayload targets the payload codec alone, under the frame checksum
// (which the frame scanner would normally reject mismatches with).
func FuzzWALPayload(f *testing.F) {
	f.Add(appendRecord(nil, goodRec(1, 1, 2, 5)))
	f.Add(appendRecord(nil, badRec(1, 0)))
	f.Add([]byte{1, 0})
	f.Add([]byte{1, 2, 0})
	for _, p := range wrapGapPayloads() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodePayload(payload, true)
		if err != nil {
			return
		}
		if rec.Line == 0 {
			t.Fatal("decoded record with zero line")
		}
		if rec.Bad == nil {
			items := rec.Rec.Items()
			for j := 1; j < len(items); j++ {
				if items[j] <= items[j-1] {
					t.Fatalf("non-canonical itemset %v", items)
				}
			}
			_ = itemset.FromSorted(items)
		}
	})
}
