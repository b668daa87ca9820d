// Package frame is the one codec behind the repository's two append-only
// binary formats, the ingest write-ahead log (internal/wal) and the
// checkpoint store (internal/checkpoint). Each of those packages keeps its
// file headers and payload layouts, and documents them; this package owns
// the pieces they share:
//
//   - the frame, uint32 LE len(payload) | uint32 LE CRC32(IEEE, payload) |
//     payload, encoded in place in the caller's buffer (Begin, Seal) and
//     split off a byte slice with the failure classified as torn or corrupt
//     (Split), which is what longest-valid-prefix recovery needs;
//   - Reader, a panic-free payload cursor whose first failure sticks, and
//     which checks every length and count against the remaining bytes
//     before anything is allocated;
//   - the delta-encoded itemset (AppendItems, ReadItems);
//   - the length-prefixed string (AppendString, Reader.Bytes);
//   - SyncDir.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
)

// HeaderLen is the fixed prefix of every frame: payload length and payload
// checksum.
const HeaderLen = 8

// ErrTorn marks an incomplete frame: fewer bytes than a header, or than the
// header promises. Recovery treats it like corruption — both keep the
// longest valid prefix — but reports it apart, since a torn tail is what a
// crash mid-write leaves.
var ErrTorn = errors.New("torn frame")

// Begin appends the header of a new frame to b. The caller appends the
// payload after it and then calls Seal with the header's offset, len(b)
// before Begin.
func Begin(b []byte) []byte { return append(b, 0, 0, 0, 0, 0, 0, 0, 0) }

// Seal fills in the header of the frame begun at b[start:], covering every
// byte appended since, and returns the payload checksum.
func Seal(b []byte, start int) uint32 {
	payload := b[start+HeaderLen:]
	sum := crc32.ChecksumIEEE(payload)
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], sum)
	return sum
}

// Split splits the frame at the start of b off the bytes after it. It
// returns the payload, aliasing b, its checksum, and the frame's length n.
// The error wraps ErrTorn when b holds fewer bytes than a header or than the
// header promises, and corrupt when the length exceeds max (max <= 0 bounds
// nothing) or the checksum does not match. n is the length the header
// claims whenever it is readable and within max, even for a torn frame, and
// 0 otherwise.
func Split(b []byte, max int, corrupt error) (payload []byte, sum uint32, n int, err error) {
	if len(b) < HeaderLen {
		return nil, 0, 0, fmt.Errorf("%w: %d-byte frame header", ErrTorn, len(b))
	}
	plen := uint64(binary.LittleEndian.Uint32(b))
	if max > 0 && plen > uint64(max) {
		return nil, 0, 0, fmt.Errorf("%w: frame length %d exceeds %d", corrupt, plen, max)
	}
	n = HeaderLen + int(plen)
	if plen > uint64(len(b)-HeaderLen) {
		return nil, 0, n, fmt.Errorf("%w: %d of %d frame bytes", ErrTorn, len(b), n)
	}
	payload = b[HeaderLen:n]
	sum = binary.LittleEndian.Uint32(b[4:])
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, 0, n, fmt.Errorf("%w: checksum %08x, want %08x", corrupt, got, sum)
	}
	return payload, sum, n, nil
}

// Reader is a panic-free cursor over one payload. Its first failure sticks:
// the reader stops there, every later read returns zero values, and Done
// reports the failure, wrapping the sentinel the reader was made with. A
// decoder therefore reads its fields in order and checks once, at the end.
// Every length and count is checked against the remaining bytes before the
// caller allocates for it, so a fabricated count cannot make a decoder
// allocate more than its input.
type Reader struct {
	b       []byte
	off     int
	corrupt error
	err     error
}

// NewReader returns a cursor at the start of payload whose errors wrap
// corrupt.
func NewReader(payload []byte, corrupt error) *Reader {
	return &Reader{b: payload, corrupt: corrupt}
}

// Fail records a failure, unless one is already recorded, and stops the
// reader. Decoders call it for semantic checks the format makes.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{r.corrupt}, args...)...)
	}
	r.off = len(r.b)
}

// Done returns the first failure, or an error if any byte is left unread.
func (r *Reader) Done() error {
	if r.off != len(r.b) { // a failed reader has stopped at the end
		r.Fail("%d trailing payload bytes", len(r.b)-r.off)
	}
	return r.err
}

// truncated fails the reader, unless it has already stopped: the payload
// ends inside a value. (A stopped reader is at the end, so every later read
// lands here; the check keeps those reads cheap.)
func (r *Reader) truncated(what string) {
	if r.err == nil {
		r.Fail("truncated %s at offset %d", what, r.off)
	}
}

// Uvarint reads an unsigned varint. Only the shortest encoding of a value
// is accepted — the one binary.AppendUvarint writes — so every payload has
// one encoding and decoding then re-encoding reproduces its bytes.
func (r *Reader) Uvarint() uint64 {
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		r.off++
		return uint64(r.b[r.off-1])
	}
	// Past the one-byte case, a valid encoding is two bytes or more and
	// ends in a non-zero byte.
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || r.b[r.off+n-1] == 0 {
		r.badUvarint(n)
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) badUvarint(n int) {
	if n > 0 {
		r.Fail("overlong uvarint at offset %d", r.off)
		return
	}
	r.truncated("uvarint")
}

// Varint reads a zigzag varint, shortest encoding only.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads a zigzag varint that must lie in [lo, hi]; what names it in the
// error.
func (r *Reader) Int(what string, lo, hi int64) int {
	v := r.Varint()
	if v < lo || v > hi {
		r.Fail("%s %d out of range", what, v)
		return 0
	}
	return int(v)
}

// Count reads an element count, rejecting any value larger than the
// remaining bytes: every element takes at least one.
func (r *Reader) Count(what string) int {
	v := r.Uvarint()
	if v > uint64(len(r.b)-r.off) {
		r.Fail("%s count %d exceeds %d remaining bytes", what, v, len(r.b)-r.off)
		return 0
	}
	return int(v)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off < len(r.b) {
		r.off++
		return r.b[r.off-1]
	}
	r.truncated("byte")
	return 0
}

// Uint32 reads a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if len(r.b)-r.off < 4 {
		r.truncated("u32")
		return 0
	}
	r.off += 4
	return binary.LittleEndian.Uint32(r.b[r.off-4:])
}

// Uint64 reads a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if len(r.b)-r.off < 8 {
		r.truncated("u64")
		return 0
	}
	r.off += 8
	return binary.LittleEndian.Uint64(r.b[r.off-8:])
}

// Bytes reads a string AppendString wrote. The result aliases the payload.
func (r *Reader) Bytes(what string) []byte {
	n := r.Count(what)
	r.off += n
	return r.b[r.off-n : r.off]
}

// AppendString appends s with its length.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendItems appends a strictly increasing item list: its length, then
// each item as its distance past the smallest id it could take — 0 for the
// first item, its predecessor plus one after that. Decoding therefore
// rebuilds a strictly increasing list by construction, or fails.
func AppendItems[T ~int32](b []byte, items []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(items)))
	next := int64(0)
	for _, it := range items {
		b = binary.AppendUvarint(b, uint64(int64(it)-next))
		next = int64(it) + 1
	}
	return b
}

// ReadItems reads a list AppendItems wrote. With keep it returns the items;
// without, it checks the same bytes and allocates nothing. Each gap is
// bounds-checked before it is converted, so one that would take an id past
// math.MaxInt32 — or wrap it round to a repeated or negative id — fails
// the reader. It returns nil once the reader has failed.
func ReadItems[T ~int32](r *Reader, keep bool) []T {
	n := r.Count("itemset items")
	var items []T
	if keep {
		items = make([]T, n)
	}
	const limit = math.MaxInt32 + 1
	next := uint64(0) // the smallest id the next item may take; at most limit
	for i := 0; i < n; i++ {
		gap := r.Uvarint()
		if gap >= limit-next {
			r.Fail("item gap %d after id %d overflows", gap, int64(next)-1)
			return nil
		}
		next += gap
		if keep {
			items[i] = T(next)
		}
		next++
	}
	if r.err != nil {
		return nil
	}
	return items
}

// SyncDir fsyncs a directory so the file creations, renames and removals
// in it are durable. It is best effort: every caller carries on when the
// directory cannot be opened or synced.
func SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
