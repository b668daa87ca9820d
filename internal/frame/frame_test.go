package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"slices"
	"testing"
)

var errTestCorrupt = errors.New("test: corrupt")

// sealed returns one frame per payload, back to back.
func sealed(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		start := len(b)
		b = append(Begin(b), p...)
		Seal(b, start)
	}
	return b
}

// splitAll splits frames off b until the first error. It returns the
// payloads, the end offset of each frame, and the error that stopped it
// (nil when every byte split cleanly).
func splitAll(b []byte, max int) (payloads [][]byte, ends []int, err error) {
	off := 0
	for off < len(b) {
		p, _, n, err := Split(b[off:], max, errTestCorrupt)
		if err != nil {
			return payloads, ends, err
		}
		payloads = append(payloads, p)
		off += n
		ends = append(ends, off)
	}
	return payloads, ends, nil
}

// FuzzFrame holds Split to the contract longest-valid-prefix recovery rests
// on, over arbitrary bytes and bounds: it never panics, returns only
// checksum-valid payloads that re-frame to exactly the valid prefix, reports
// torn exactly when fewer bytes remain than a header promises (and corrupt
// otherwise), and is prefix-monotone under truncation.
func FuzzFrame(f *testing.F) {
	two := sealed([]byte("alpha"), []byte{})
	f.Add(two, uint16(0))
	f.Add(two[:HeaderLen-3], uint16(0)) // torn header
	f.Add(two[:HeaderLen+2], uint16(0)) // torn payload
	spliced := append(append([]byte(nil), two[:HeaderLen+5]...), sealed([]byte("beta beta"))[HeaderLen+3:]...)
	f.Add(spliced, uint16(0)) // a frame from one buffer runs into the middle of another's
	for _, at := range []int{1, 5, HeaderLen + 1} {
		flipped := append([]byte(nil), two...)
		flipped[at] ^= 0x10 // bit flips in the length, the checksum and the payload
		f.Add(flipped, uint16(0))
	}
	f.Add(sealed(make([]byte, 40)), uint16(16)) // over-bound length

	f.Fuzz(func(t *testing.T, b []byte, bound uint16) {
		max := int(bound)
		payloads, ends, err := splitAll(b, max)
		good := 0
		if len(ends) > 0 {
			good = ends[len(ends)-1]
		}
		for i, p := range payloads {
			start := ends[i] - len(p) - HeaderLen
			if binary.LittleEndian.Uint32(b[start+4:]) != crc32.ChecksumIEEE(p) {
				t.Fatalf("payload %d returned with a checksum mismatch", i)
			}
		}
		if !bytes.Equal(sealed(payloads...), b[:good]) {
			t.Fatalf("%d payloads do not re-frame to the %d-byte valid prefix", len(payloads), good)
		}
		rest := b[good:]
		promised := -1 // the payload bytes rest's header promises, when in bound
		if len(rest) >= HeaderLen {
			if plen := binary.LittleEndian.Uint32(rest); max <= 0 || uint64(plen) <= uint64(max) {
				promised = int(plen)
			}
		}
		torn := len(rest) > 0 && (len(rest) < HeaderLen || promised > len(rest)-HeaderLen)
		switch {
		case err == nil && len(rest) != 0:
			t.Fatalf("clean split stopped %d bytes short", len(rest))
		case err != nil && errors.Is(err, ErrTorn) != torn:
			t.Fatalf("torn = %v for %v with %d bytes left (promised %d)", !torn, err, len(rest), promised)
		case err != nil && !torn && !errors.Is(err, errTestCorrupt):
			t.Fatalf("corrupt frame error %v does not wrap the caller's sentinel", err)
		}
		// Truncating b anywhere keeps exactly the frames that end inside the
		// cut: never more, never a different one.
		for k := 0; k <= len(b); k += 1 + len(b)/64 {
			cut, cutEnds, _ := splitAll(b[:k], max)
			want := 0
			for want < len(ends) && ends[want] <= k {
				want++
			}
			if len(cut) != want || (want > 0 && cutEnds[want-1] != ends[want-1]) {
				t.Fatalf("cut at %d split %d frames, want the %d that end inside it", k, len(cut), want)
			}
		}
	})
}

// TestReadItemsBounds pins the item-id bound of both decode modes: the
// largest int32 id decodes, and any gap that would take an id past it —
// including one that wraps round to a repeated or negative id — is corrupt.
func TestReadItemsBounds(t *testing.T) {
	cases := []struct {
		name string
		gaps []uint64
		want []int32 // nil when the list is corrupt
	}{
		{"empty", nil, []int32{}},
		{"largest id", []uint64{math.MaxInt32}, []int32{math.MaxInt32}},
		{"first id past int32", []uint64{math.MaxInt32 + 1}, nil},
		{"item after the largest id", []uint64{math.MaxInt32, 0}, nil},
		{"gap wraps to a repeat", []uint64{5, math.MaxUint64}, nil},
		{"gap wraps negative", []uint64{math.MaxUint64 - 41}, nil},
	}
	for _, tc := range cases {
		b := binary.AppendUvarint(nil, uint64(len(tc.gaps)))
		for _, g := range tc.gaps {
			b = binary.AppendUvarint(b, g)
		}
		for _, keep := range []bool{true, false} {
			r := NewReader(b, errTestCorrupt)
			items := ReadItems[int32](r, keep)
			err := r.Done()
			switch {
			case tc.want == nil && !errors.Is(err, errTestCorrupt):
				t.Errorf("%s (keep=%v): %v, %v; want corrupt", tc.name, keep, items, err)
			case tc.want != nil && err != nil:
				t.Errorf("%s (keep=%v): %v", tc.name, keep, err)
			case tc.want != nil && keep && !slices.Equal(items, tc.want):
				t.Errorf("%s: items %v, want %v", tc.name, items, tc.want)
			}
		}
	}
}

// TestReaderRejectsOverlongVarints: a varint padded with zero high groups
// decodes to the same value as its shortest form, so accepting it would give
// one payload two encodings and break the canonical re-encode the checkpoint
// chain's checksums rest on.
func TestReaderRejectsOverlongVarints(t *testing.T) {
	for _, b := range [][]byte{{0x80, 0x00}, {0xd8, 0xd8, 0xd8, 0x00}} {
		r := NewReader(b, errTestCorrupt)
		if v := r.Uvarint(); !errors.Is(r.Done(), errTestCorrupt) {
			t.Errorf("uvarint % x: %d, %v; want corrupt", b, v, r.Done())
		}
		r = NewReader(b, errTestCorrupt)
		if v := r.Varint(); !errors.Is(r.Done(), errTestCorrupt) {
			t.Errorf("varint % x: %d, %v; want corrupt", b, v, r.Done())
		}
	}
	for _, v := range []int64{0, -1, 1, math.MinInt64, math.MaxInt64} {
		r := NewReader(binary.AppendVarint(nil, v), errTestCorrupt)
		if got := r.Varint(); got != v || r.Done() != nil {
			t.Errorf("varint %d decodes to %d, %v", v, got, r.Done())
		}
	}
	r := NewReader(binary.AppendUvarint(nil, math.MaxUint64), errTestCorrupt)
	if got := r.Uvarint(); got != math.MaxUint64 || r.Done() != nil {
		t.Errorf("uvarint 2^64-1 decodes to %d, %v", got, r.Done())
	}
}
