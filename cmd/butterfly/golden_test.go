package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPublishedBytesGolden pins the bytes the CLI publishes across builds:
// the sha256 of its stdout for both generators under every scheme, equal at
// -workers 1 and 8, must match testdata/published.sha256. The order-
// preserving DP runs at the default lookback γ = 2 and, beam-bounded, at
// γ = 4 and 8. A change that alters published output on purpose replaces
// the file with the sums the failure prints and says why in its change
// notes.
func TestPublishedBytesGolden(t *testing.T) {
	var got strings.Builder
	for _, gen := range []string{"webview", "pos"} {
		for _, scheme := range []string{"basic", "order", "ratio", "hybrid", "order -gamma 4", "hybrid -gamma 8"} {
			var sums []string
			for _, workers := range []string{"1", "8"} {
				args := append([]string{"-gen", gen, "-scheme"}, strings.Fields(scheme)...)
				out := runArgs(t, append(args, "-n", "2500", "-window", "800",
					"-support", "25", "-epsilon", "0.1", "-delta", "0.4",
					"-publish-every", "250", "-seed", "7", "-top", "0", "-workers", workers))
				sums = append(sums, fmt.Sprintf("%x", sha256.Sum256([]byte(out))))
			}
			if sums[0] != sums[1] {
				t.Errorf("-gen %s -scheme %s: -workers 1 and 8 print different bytes", gen, scheme)
			}
			fmt.Fprintf(&got, "%s  %s/%s\n", sums[0], gen, scheme)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "published.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("published bytes changed; got\n%swant\n%s", got.String(), want)
	}
}
