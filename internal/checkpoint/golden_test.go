package checkpoint_test

import (
	"bytes"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
)

// The golden files pin both frozen on-disk formats byte for byte: a full v1
// snapshot of testSnapshot, and the three-frame delta chain segment that
// chainStore appends to it. Round-trip and canonical re-encode tests pass
// even when the encoder and the decoder drift together; these do not.
//
// The legacy pair holds the same content as an earlier build wrote it, with
// a cross-window bias memo in the snapshot and in every frame. This build
// writes an empty memo block, so the legacy pair is decode-only input (see
// legacy_test.go).
const (
	goldenSnapshot = "testdata/golden-v1-empty-memo.bfck"
	goldenChain    = "testdata/golden-chain-v2-empty-memo.bfdl"
	legacySnapshot = "testdata/golden-v1.bfck"
	legacyChain    = "testdata/golden-chain-v2.bfdl"
)

func readGolden(tb testing.TB, path string) []byte {
	tb.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// sameBytes fails the test, naming the first differing offset, unless got
// equals the golden file's bytes.
func sameBytes(t *testing.T, what string, got, golden []byte) {
	t.Helper()
	if bytes.Equal(got, golden) {
		return
	}
	i := 0
	for i < len(got) && i < len(golden) && got[i] == golden[i] {
		i++
	}
	t.Fatalf("%s drifted from its golden file: %d bytes, golden %d, first difference at offset %d",
		what, len(got), len(golden), i)
}

func TestGoldenSnapshotBytes(t *testing.T) {
	golden := readGolden(t, goldenSnapshot)
	enc, err := checkpoint.Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "v1 snapshot", enc, golden)

	s, err := checkpoint.Decode(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, testSnapshot(t)) {
		t.Fatalf("golden snapshot decodes to\n %+v\nwant %+v", s, testSnapshot(t))
	}
}

func TestGoldenChainBytes(t *testing.T) {
	golden := readGolden(t, goldenChain)
	dir := t.TempDir()
	st, _, want := chainStore(t, dir, 3)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(findOne(t, dir, "delta-*.bfdl"))
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "delta chain segment", seg, golden)

	anchor := readGolden(t, goldenSnapshot)
	s, err := checkpoint.Decode(anchor)
	if err != nil {
		t.Fatal(err)
	}
	if n := checkpoint.ApplyChain(s, golden, s.Records, crc32.ChecksumIEEE(anchor), t.Errorf); n != 3 {
		t.Fatalf("golden chain applied %d frames, want 3", n)
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("golden chain decodes to\n %+v\nwant %+v", s, want)
	}
}
