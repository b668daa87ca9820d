package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/itemset"
)

func stateTestStream(t *testing.T, workers int) (*core.Stream, []itemset.Itemset) {
	t.Helper()
	stream, err := core.NewStream(core.StreamConfig{
		WindowSize: 200,
		Params:     core.Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5},
		Scheme:     core.Hybrid{Lambda: 0.4},
		Seed:       17,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream.Publisher().SetWorkers(workers)
	return stream, data.WebViewLike(5).Generate(500)
}

func renderOutput(o *core.Output) string {
	var sb strings.Builder
	for _, it := range o.Items {
		fmt.Fprintf(&sb, "%v=%d;", it.Set, it.Support)
	}
	return sb.String()
}

// TestPublisherSnapshotRestoreContinuesByteIdentical is the core half of the
// crash-resume guarantee: publish a stream of windows, snapshot the
// publisher mid-stream, rebuild a FRESH stream from the same configuration,
// restore the snapshot and the window buffer into it, and the remaining
// publications must be byte-identical — same sanitized supports, same
// republication-cache hits — at workers 1 and 4.
func TestPublisherSnapshotRestoreContinuesByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ref, records := stateTestStream(t, workers)
			const cutAt = 260 // snapshot position, mid-stream
			var refTail []string
			var snap *core.PublisherState
			var window []itemset.Itemset
			for i, rec := range records {
				ref.Push(rec)
				if !ref.Ready() || (i+1)%20 != 0 {
					continue
				}
				out, err := ref.Publish()
				if err != nil {
					t.Fatal(err)
				}
				if i+1 == cutAt {
					snap = ref.Publisher().Snapshot()
					window = ref.WindowRecords()
				}
				if i+1 > cutAt {
					refTail = append(refTail, renderOutput(out))
				}
			}
			if snap == nil {
				t.Fatal("fixture never reached the snapshot position")
			}

			// The snapshot shares nothing with its publisher: the reference
			// stream has published far past the cut by now, so a live alias
			// would have diverged the captured state.
			resumed, _ := stateTestStream(t, workers)
			for _, rec := range window {
				resumed.Push(rec)
			}
			if err := resumed.Publisher().Restore(snap); err != nil {
				t.Fatal(err)
			}
			var gotTail []string
			for i := cutAt; i < len(records); i++ {
				resumed.Push(records[i])
				if (i+1)%20 != 0 {
					continue
				}
				out, err := resumed.Publish()
				if err != nil {
					t.Fatal(err)
				}
				gotTail = append(gotTail, renderOutput(out))
			}
			if len(gotTail) != len(refTail) {
				t.Fatalf("resumed run published %d windows, want %d", len(gotTail), len(refTail))
			}
			for i := range refTail {
				if gotTail[i] != refTail[i] {
					t.Fatalf("window %d after restore differs:\n got %s\nwant %s", i, gotTail[i], refTail[i])
				}
			}
		})
	}
}

// TestRestoreCopiesHeldState: Restore copies the state it is given, so one
// held snapshot can seed any number of restarts — what an in-memory
// checkpoint relies on when a stream fails again before its next save.
// Publishing after a restore leaves the held state unchanged, and a second
// restore from it publishes the same windows again.
func TestRestoreCopiesHeldState(t *testing.T) {
	stream, records := stateTestStream(t, 2)
	const cutAt = 260
	for i, rec := range records[:cutAt] {
		stream.Push(rec)
		if stream.Ready() && (i+1)%20 == 0 {
			if _, err := stream.Publish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	held, window := stream.Publisher().Snapshot(), stream.WindowRecords()
	heldText := fmt.Sprintf("%+v", *held)
	restart := func() []string {
		s, _ := stateTestStream(t, 2)
		for _, rec := range window {
			s.Push(rec)
		}
		if err := s.Publisher().Restore(held); err != nil {
			t.Fatal(err)
		}
		var outs []string
		for i := cutAt; i < len(records); i++ {
			s.Push(records[i])
			if (i+1)%20 == 0 {
				out, err := s.Publish()
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, renderOutput(out))
			}
		}
		return outs
	}
	first := restart()
	if got := fmt.Sprintf("%+v", *held); got != heldText {
		t.Fatal("publishing after Restore mutated the state it was restored from")
	}
	if second := restart(); strings.Join(second, "\n") != strings.Join(first, "\n") {
		t.Fatal("a second restore from the same held state published different windows")
	}
}

// TestSnapshotIsDeepCopy: mutating the publisher after Snapshot must not
// disturb the captured state, and vice versa.
func TestSnapshotIsDeepCopy(t *testing.T) {
	stream, records := stateTestStream(t, 1)
	for i, rec := range records[:240] {
		stream.Push(rec)
		if stream.Ready() && (i+1)%20 == 0 {
			if _, err := stream.Publish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := stream.Publisher().Snapshot()
	before, err := stream.Publisher().Snapshot(), error(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the captured copies.
	if len(snap.Cache) > 0 {
		snap.Cache[0].Sanitized = -999
	}
	after := stream.Publisher().Snapshot()
	if fmt.Sprintf("%+v", after) != fmt.Sprintf("%+v", before) {
		t.Fatal("mutating a snapshot leaked into the publisher")
	}
}

// TestRestoreValidation: a structurally inconsistent state fails loudly.
func TestRestoreValidation(t *testing.T) {
	stream, _ := stateTestStream(t, 1)
	pub := stream.Publisher()
	if err := pub.Restore(nil); err == nil {
		t.Fatal("nil state accepted")
	}
	if err := pub.Restore(&core.PublisherState{Window: -1}); err == nil {
		t.Fatal("negative window counter accepted")
	}
}

// TestSnapshotDeterministicCacheOrder: equal publishers snapshot to equal
// states even though the underlying cache is a map — required for
// byte-identical checkpoint files.
func TestSnapshotDeterministicCacheOrder(t *testing.T) {
	render := func() string {
		stream, records := stateTestStream(t, 1)
		for i, rec := range records[:300] {
			stream.Push(rec)
			if stream.Ready() && (i+1)%20 == 0 {
				if _, err := stream.Publish(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return fmt.Sprintf("%+v", stream.Publisher().Snapshot())
	}
	if render() != render() {
		t.Fatal("identical runs snapshot to different states")
	}
}
