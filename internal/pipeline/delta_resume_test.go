package pipeline_test

// Kill-and-resume acceptance suite for delta checkpointing. The bar is the
// same as resume_test.go's — a killed run resumed from the store publishes
// the remaining windows byte-identically — but here the store holds MIXED
// chains: anchor full snapshots every CheckpointFullEvery generations with
// CRC-framed delta chains between them, and recovery reconstructs the
// resume snapshot by replaying the newest full's chain.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/pipeline"
)

// resumeFullEvery keeps three delta frames between anchors; with
// CheckpointEvery=1 over the 61-window fixture the sweep crosses ~15 full
// and ~45 delta generations, so every kill position lands on both kinds.
const resumeFullEvery = 4

func deltaConfig(workers int, store *checkpoint.Store, ckptEvery int) pipeline.Config {
	cfg := resumeConfig(workers, store, ckptEvery)
	cfg.CheckpointFullEvery = resumeFullEvery
	return cfg
}

// TestDeltaCheckpointingIsTransparent: switching from all-full generations
// to delta chains changes no published byte — and actually writes chains.
func TestDeltaCheckpointingIsTransparent(t *testing.T) {
	in := resumeInput{records: testRecords(t, resumeRecords)}
	for _, workers := range []int{1, 4} {
		store, err := checkpoint.NewStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		got := runKilled(t, deltaConfig(workers, store, 1), in, resumeWindows)
		sameTail(t, fmt.Sprintf("delta-checkpointed vs plain, workers=%d", workers),
			got, reference(t, workers, in))
		segs, err := filepath.Glob(filepath.Join(store.Dir(), "delta-*.bfdl"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no delta segments written: %v, %v", segs, err)
		}
	}
}

// TestKillAndResumeMixedChainsByteIdentical is the delta acceptance sweep:
// kill after EVERY checkpointed window boundary — so the newest durable
// generation alternates between anchor fulls and chain tips — and resume;
// the tail must be byte-identical to the uninterrupted reference at the
// serial tier and two chunked worker counts.
func TestKillAndResumeMixedChainsByteIdentical(t *testing.T) {
	in := resumeInput{records: testRecords(t, resumeRecords)}
	step := 1
	if testing.Short() {
		step = 7
	}
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ref := reference(t, workers, in)
			chainResumes := 0
			for kill := 1; kill <= resumeWindows; kill += step {
				store, err := checkpoint.NewStore(t.TempDir(), 0)
				if err != nil {
					t.Fatal(err)
				}
				head := runKilled(t, deltaConfig(workers, store, 1), in, kill)
				sameTail(t, fmt.Sprintf("kill=%d head", kill), head, ref[:kill])
				if _, det, err := store.LatestDetail(); err != nil {
					t.Fatal(err)
				} else if det.Frames > 0 {
					chainResumes++
				}
				tail := resumeRun(t, deltaConfig(workers, store, 1), store, in)
				sameTail(t, fmt.Sprintf("kill=%d resumed tail", kill), tail, ref[kill:])
			}
			if chainResumes == 0 {
				t.Fatal("no kill position resumed through a delta chain — the sweep tested nothing new")
			}
		})
	}
}

// TestCrashDuringDeltaChainThenResume: the process dies INSIDE the write
// protocol of a mixed chain — before a delta append's write, mid-append
// (torn frame), or before an anchor full's rename. In every case the
// previous durable generation carries the resume, byte-identically.
func TestCrashDuringDeltaChainThenResume(t *testing.T) {
	in := resumeInput{records: testRecords(t, resumeRecords)}
	ref := reference(t, 2, in)
	// With CheckpointEvery=1 and CheckpointFullEvery=4, generations
	// 1, 5, 9, ... are anchor fulls and the rest delta frames.
	cases := []struct {
		point     string
		dieOnSave int
	}{
		{checkpoint.CrashBeforeWrite, 7},  // a delta append: chain full@5 + delta@6 survives
		{checkpoint.CrashTornDelta, 6},    // first frame of full@5's chain torn: bare anchor survives
		{checkpoint.CrashTornDelta, 8},    // third frame torn: two valid frames survive
		{checkpoint.CrashBeforeRename, 9}, // an anchor full: full@5's chain (3 frames) survives
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s@%d", tc.point, tc.dieOnSave), func(t *testing.T) {
			store, err := checkpoint.NewStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			store.Logf = func(string, ...any) {}
			plan := &faultinject.CrashPlan{Point: tc.point, OnSave: tc.dieOnSave}
			store.CrashHook = plan.Hook()
			p, err := pipeline.New(deltaConfig(2, store, 1))
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			_, err = p.RunContext(context.Background(), pipeline.SliceSource(in.records),
				func(pipeline.Window) error { delivered++; return nil })
			if !errors.Is(err, checkpoint.ErrInjectedCrash) {
				t.Fatalf("run: %v, want the injected crash", err)
			}
			if plan.Fired() != 1 || delivered != tc.dieOnSave {
				t.Fatalf("crash fired %d times after %d deliveries, want 1 after %d",
					plan.Fired(), delivered, tc.dieOnSave)
			}
			// "Restart": a fresh store over the same directory, no crash plan.
			store, err = checkpoint.NewStore(store.Dir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			store.Logf = func(string, ...any) {}
			snap, det, err := store.LatestDetail()
			if err != nil || snap == nil {
				t.Fatalf("no recoverable generation: %v", err)
			}
			// The failed save never became durable: recovery lands exactly
			// one generation back.
			if wantFrames := (tc.dieOnSave - 1 - 1) % resumeFullEvery; det.Frames != wantFrames {
				t.Fatalf("recovered %d chain frames, want %d", det.Frames, wantFrames)
			}
			tail := resumeRun(t, deltaConfig(2, store, 1), store, in)
			sameTail(t, tc.point, tail, ref[tc.dieOnSave-1:])
		})
	}
}

// TestDeltaResumeAcrossWorkerCounts: a chain written at one worker count
// resumes byte-identically under another — the snapshot reconstructed from
// anchor + frames is worker-count-portable like a full snapshot.
func TestDeltaResumeAcrossWorkerCounts(t *testing.T) {
	in := resumeInput{records: testRecords(t, resumeRecords)}
	ref := reference(t, 2, in)
	const kill = 20 // generation 20 is a chain tip (3 frames past full@17)
	for _, tc := range []struct{ from, to int }{{2, 8}, {8, 1}, {1, 8}} {
		store, err := checkpoint.NewStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		runKilled(t, deltaConfig(tc.from, store, 1), in, kill)
		if _, det, err := store.LatestDetail(); err != nil || det.Frames == 0 {
			t.Fatalf("kill point did not land on a chain tip: %+v, %v", det, err)
		}
		tail := resumeRun(t, deltaConfig(tc.to, store, 1), store, in)
		sameTail(t, fmt.Sprintf("workers %d -> %d through a chain", tc.from, tc.to), tail, ref[kill:])
	}
}

// TestSparseDeltaCheckpointRepublishesOverlapIdentically: CheckpointEvery=3
// with chains on top — a kill between generations resumes from an earlier
// cut and the re-published overlap must be byte-identical (§VI through a
// reconstructed snapshot).
func TestSparseDeltaCheckpointRepublishesOverlapIdentically(t *testing.T) {
	in := resumeInput{records: testRecords(t, resumeRecords)}
	for _, workers := range []int{1, 4} {
		ref := reference(t, workers, in)
		for _, kill := range []int{7, 11, 32} {
			store, err := checkpoint.NewStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			runKilled(t, deltaConfig(workers, store, 3), in, kill)
			lastCkpt := (kill / 3) * 3
			tail := resumeRun(t, deltaConfig(workers, store, 3), store, in)
			label := fmt.Sprintf("workers=%d kill=%d (generation at %d)", workers, kill, lastCkpt)
			sameTail(t, label, tail, ref[lastCkpt:])
		}
	}
}
