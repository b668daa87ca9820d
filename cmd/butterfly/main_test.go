package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/itemset"
)

func TestRunStdinPipeline(t *testing.T) {
	in := strings.Repeat("a b c\na b\nb c\n", 4)
	var out bytes.Buffer
	err := run([]string{
		"-input", "-", "-window", "6", "-support", "2", "-vuln", "1",
		"-epsilon", "0.5", "-delta", "0.3", "-scheme", "basic",
	}, strings.NewReader(in), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "window Ds(") {
		t.Errorf("no window published:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "{a,b}") {
		t.Errorf("expected itemset {a,b} in output:\n%s", out.String())
	}
}

func TestRunGeneratedStream(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-gen", "webview", "-n", "1200", "-window", "600", "-support", "12",
		"-epsilon", "0.1", "-delta", "0.4", "-scheme", "hybrid", "-top", "3",
	}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 window(s) published") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                 // no input at all
		{"-input", "x", "-gen", "webview"}, // mutually exclusive
		{"-gen", "nope"},                   // unknown generator
		{"-gen", "webview", "-n", "5", "-window", "100"}, // too few records
		{"-gen", "webview", "-scheme", "nope"},
		{"-gen", "webview", "-scheme", "hybrid", "-lambda", "3"},
	}
	for i, args := range cases {
		var out bytes.Buffer
		if err := run(args, strings.NewReader(""), &out); err == nil {
			t.Errorf("case %d (%v) did not error", i, args)
		}
	}
}

func TestRunRawAndDump(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{
		"-gen", "webview", "-n", "700", "-window", "600", "-support", "12",
		"-epsilon", "0.1", "-delta", "0.4", "-raw", "-dump-dir", dir,
	}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "window-*.txt"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no dumped windows: %v %v", matches, err)
	}
	content, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(content) == 0 {
		t.Error("dumped window is empty")
	}
	if !strings.Contains(out.String(), "RAW") {
		t.Error("raw mode not announced")
	}
}

// TestRunWorkersDeterminism pins the CLI half of the chunked-RNG contract:
// every -workers count must print byte-identical output for a fixed seed,
// so the default (the host's CPU count) never changes what is published.
func TestRunWorkersDeterminism(t *testing.T) {
	runWith := func(workers string) string {
		var out bytes.Buffer
		err := run([]string{
			"-gen", "webview", "-n", "1500", "-window", "600", "-support", "12",
			"-epsilon", "0.1", "-delta", "0.4", "-scheme", "hybrid",
			"-publish-every", "200", "-seed", "9", "-workers", workers,
		}, nil, &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	ref := runWith("2")
	if !strings.Contains(ref, "window(s) published") {
		t.Fatalf("unexpected output:\n%s", ref)
	}
	for _, workers := range []string{"1", "3", "8"} {
		if got := runWith(workers); got != ref {
			t.Errorf("-workers %s output differs from -workers 2:\n%s\nvs\n%s", workers, got, ref)
		}
	}
}

// TestRunWorkersValidation rejects non-positive worker counts.
func TestRunWorkersValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-gen", "webview", "-workers", "0"}, nil, &out); err == nil {
		t.Error("-workers 0 accepted")
	}
}

// TestRunMalformedStdin: malformed lines fail fast by default; with a
// -max-bad-records budget they are skipped, counted, and reported with
// their line numbers in the summary.
func TestRunMalformedStdin(t *testing.T) {
	in := strings.Repeat("a b c\na b\nb c\n", 4) + "bad\x00line\n" + strings.Repeat("a b\n", 3)
	base := []string{
		"-input", "-", "-window", "6", "-support", "2", "-vuln", "1",
		"-epsilon", "0.5", "-delta", "0.3", "-scheme", "basic",
	}

	var out bytes.Buffer
	if err := run(base, strings.NewReader(in), &out); err == nil {
		t.Fatal("malformed input accepted without a bad-record budget")
	}

	out.Reset()
	if err := run(append(base, "-max-bad-records", "1"), strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 malformed record(s) skipped") {
		t.Errorf("summary missing the skip count:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "line 13") {
		t.Errorf("summary missing the quarantined line number:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "window(s) published over 15 records") {
		t.Errorf("summary should count only well-formed records:\n%s", out.String())
	}
}

// TestRunSupervisionFlagValidation rejects out-of-range supervision knobs.
func TestRunSupervisionFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-gen", "webview", "-max-bad-records", "-2"},
		{"-gen", "webview", "-emit-retries", "-1"},
		{"-gen", "webview", "-window-timeout", "-1s"},
	}
	for i, args := range cases {
		var out bytes.Buffer
		if err := run(args, nil, &out); err == nil {
			t.Errorf("case %d (%v) did not error", i, args)
		}
	}
}

func TestBuildScheme(t *testing.T) {
	for _, name := range []string{"basic", "order", "op", "ratio", "rp", "hybrid"} {
		if _, err := buildScheme(name, 0.4, 2); err != nil {
			t.Errorf("scheme %q rejected: %v", name, err)
		}
	}
	if _, err := buildScheme("bogus", 0.4, 2); err == nil {
		t.Error("bogus scheme accepted")
	}
}

// runArgs executes the CLI and returns its stdout, failing the test on
// error.
func runArgs(t *testing.T, args []string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, nil, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

// windowBlocks slices a CLI transcript into its published-window sections,
// the units compared byte-for-byte across runs.
func windowBlocks(t *testing.T, transcript string) []string {
	t.Helper()
	parts := strings.Split(transcript, "== window Ds(")
	var blocks []string
	for _, p := range parts[1:] {
		if i := strings.Index(p, "\n#"); i >= 0 {
			p = p[:i]
		}
		blocks = append(blocks, strings.TrimRight(p, "\n"))
	}
	return blocks
}

// writeTransactionFile renders records to a temp transaction file.
func writeTransactionFile(t *testing.T, dir, name string, records []itemset.Itemset) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.WriteTransactions(f, records, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunCheckpointResumeWalkthrough is the CLI half of the kill-and-resume
// guarantee, mirroring the README walkthrough: a checkpointed run over a
// truncated stream (standing in for a killed service), then -resume over the
// full stream, publishes exactly the windows an uninterrupted run publishes
// past the cut — byte-identical.
func TestRunCheckpointResumeWalkthrough(t *testing.T) {
	records := data.WebViewLike(5).Generate(300)
	dir := t.TempDir()
	full := writeTransactionFile(t, dir, "full.dat", records)
	// The cut sits on a scheduled publication position (window 60, publish
	// every 4 → 60, 64, ..., 200, ...), so the truncated run's final window
	// coincides with a scheduled one.
	part := writeTransactionFile(t, dir, "part.dat", records[:200])
	ckdir := filepath.Join(dir, "ckpt")
	base := []string{
		"-window", "60", "-support", "10", "-vuln", "5",
		"-epsilon", "0.1", "-delta", "0.4", "-scheme", "hybrid",
		"-publish-every", "4", "-seed", "17", "-workers", "2", "-top", "0",
	}

	ref := windowBlocks(t, runArgs(t, append([]string{"-input", full}, base...)))
	if len(ref) != 61 {
		t.Fatalf("reference run published %d windows, want 61", len(ref))
	}

	firstOut := runArgs(t, append([]string{
		"-input", part, "-checkpoint-dir", ckdir, "-checkpoint-every", "1",
	}, base...))
	first := windowBlocks(t, firstOut)
	if len(first) != 36 { // positions 60..200
		t.Fatalf("truncated run published %d windows, want 36", len(first))
	}
	for i := range first {
		if first[i] != ref[i] {
			t.Fatalf("truncated-run window %d differs from reference", i)
		}
	}
	if !strings.Contains(firstOut, "checkpoint(s) written") {
		t.Fatalf("summary missing the checkpoint count:\n%s", firstOut)
	}

	resumedOut := runArgs(t, append([]string{
		"-input", full, "-checkpoint-dir", ckdir, "-checkpoint-every", "1", "-resume",
	}, base...))
	resumed := windowBlocks(t, resumedOut)
	if len(resumed) != len(ref)-36 {
		t.Fatalf("resumed run published %d windows, want %d", len(resumed), len(ref)-36)
	}
	for i := range resumed {
		if resumed[i] != ref[36+i] {
			t.Fatalf("resumed window %d differs from the uninterrupted reference:\n got %s\nwant %s",
				i, resumed[i], ref[36+i])
		}
	}
	// The replayed prefix counts: the summary sees the whole stream.
	if !strings.Contains(resumedOut, "window(s) published over 300 records") {
		t.Fatalf("resumed summary does not span the full stream:\n%s", resumedOut)
	}
}

// TestRunResumeWithoutCheckpointStartsFresh: -resume against an empty store
// warns and runs from the beginning instead of failing.
func TestRunResumeWithoutCheckpointStartsFresh(t *testing.T) {
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	out := runArgs(t, []string{
		"-gen", "webview", "-n", "700", "-window", "600", "-support", "12",
		"-epsilon", "0.1", "-delta", "0.4",
		"-checkpoint-dir", ckdir, "-resume",
	})
	if !strings.Contains(out, "1 window(s) published") {
		t.Fatalf("fresh -resume run did not publish:\n%s", out)
	}
}

// TestRunCheckpointFlagValidation rejects out-of-range durability flags at
// startup.
func TestRunCheckpointFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-gen", "webview", "-checkpoint-dir", "x", "-checkpoint-every", "0"},
		{"-gen", "webview", "-checkpoint-dir", "x", "-checkpoint-every", "-3"},
		{"-gen", "webview", "-checkpoint-dir", "x", "-checkpoint-keep", "0"},
		{"-gen", "webview", "-resume"},                     // no -checkpoint-dir
		{"-input", "-", "-checkpoint-dir", "x", "-resume"}, // stdin cannot replay
		{"-gen", "webview", "-n", "0"},
		{"-gen", "webview", "-window", "0"},
		{"-gen", "webview", "-support", "0"},
		{"-gen", "webview", "-vuln", "-1"},
		{"-gen", "webview", "-publish-every", "-1"},
		{"-gen", "webview", "-top", "-1"},
	}
	for i, args := range cases {
		var out bytes.Buffer
		if err := run(args, strings.NewReader(""), &out); err == nil {
			t.Errorf("case %d (%v) did not error", i, args)
		}
	}
}
