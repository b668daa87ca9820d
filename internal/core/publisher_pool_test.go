package core

// Regression tests for the publisher's per-window scratch reuse (the FEC
// partition arena, key buffer, and chunk-run buffers):
// published output must be byte-identical run over run, and an Output
// handed out by Publish must never be disturbed by later windows reusing
// the scratch it was assembled from.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/mining"
	"repro/internal/mining/moment"
	"repro/internal/rng"
)

// poolTestSchemes covers the shared-draw (batched RNG) and per-itemset draw
// paths plus the DP-backed schemes.
func poolTestSchemes() []Scheme {
	return []Scheme{Basic{}, Hybrid{Lambda: 0.4}, OrderPreserving{}}
}

// minedSequence mines a deterministic multi-window snapshot sequence: a
// fixed synthetic stream through the incremental miner, snapshotting every
// publishEvery slides. The publisher sees exactly what the pipeline would
// hand it, including windows whose supports shift (cache misses) and
// windows whose supports repeat (cache hits).
func minedSequence(t *testing.T) []*mining.Result {
	t.Helper()
	const (
		window       = 150
		publishEvery = 25
		records      = 900
	)
	m := moment.New(window, 8)
	var out []*mining.Result
	for pos, rec := range data.WebViewLike(5).Generate(records) {
		m.Push(rec)
		if pos+1 >= window && (pos+1-window)%publishEvery == 0 {
			out = append(out, m.Frequent())
		}
	}
	if len(out) < 20 {
		t.Fatalf("only %d snapshots mined, want >= 20 for a meaningful reuse test", len(out))
	}
	return out
}

// renderOutput canonicalizes an Output: every itemset key and sanitized
// support in published order.
func renderOutput(out *Output) string {
	var b strings.Builder
	fmt.Fprintf(&b, "H=%d\n", out.WindowSize)
	for _, it := range out.Items {
		fmt.Fprintf(&b, "%s %d\n", it.Set.Key(), it.Support)
	}
	return b.String()
}

// publishSequence runs the snapshot sequence through one fresh publisher
// and returns the retained Outputs plus each window's render taken at
// publication time.
func publishSequence(t *testing.T, scheme Scheme, workers int, seq []*mining.Result) (outs []*Output, renders []string) {
	t.Helper()
	pub := newTestPublisher(t, scheme)
	pub.SetWorkers(workers)
	for _, res := range seq {
		out, err := pub.Publish(res, 150)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
		renders = append(renders, renderOutput(out))
	}
	return outs, renders
}

func newTestPublisher(t *testing.T, scheme Scheme) *Publisher {
	t.Helper()
	pub, err := NewPublisher(Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5},
		scheme, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// TestPooledPublishRunIdentity runs the same seeded snapshot sequence
// through two independent publishers at every worker tier and requires
// byte-identical output — the scratch arenas must be invisible to the
// published bytes.
func TestPooledPublishRunIdentity(t *testing.T) {
	seq := minedSequence(t)
	for _, scheme := range poolTestSchemes() {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", scheme.Name(), workers), func(t *testing.T) {
				_, run1 := publishSequence(t, scheme, workers, seq)
				_, run2 := publishSequence(t, scheme, workers, seq)
				for i := range run1 {
					if run1[i] != run2[i] {
						t.Fatalf("window %d differs between identical runs:\n--- run1 ---\n%s--- run2 ---\n%s",
							i, run1[i], run2[i])
					}
				}
			})
		}
	}
}

// TestPooledPublishDoesNotCorruptRetainedOutputs is the aliasing detector:
// every Output is re-rendered AFTER the whole sequence has been published
// and must equal the render taken when it was handed out. If any published
// window aliased publisher scratch, a later window's reuse would have
// scribbled over it.
func TestPooledPublishDoesNotCorruptRetainedOutputs(t *testing.T) {
	seq := minedSequence(t)
	for _, scheme := range poolTestSchemes() {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", scheme.Name(), workers), func(t *testing.T) {
				outs, renders := publishSequence(t, scheme, workers, seq)
				for i, out := range outs {
					if got := renderOutput(out); got != renders[i] {
						t.Fatalf("window %d was mutated after publication (scratch aliasing):\n--- at publish ---\n%s--- now ---\n%s",
							i, renders[i], got)
					}
				}
			})
		}
	}
}

// TestMineIntoRecycledIdentity pins the miner-side half of the window pool:
// mining into a recycled result buffer yields snapshots identical to fresh
// allocation, window after window.
func TestMineIntoRecycledIdentity(t *testing.T) {
	const window, every = 150, 25
	fresh := moment.New(window, 8)
	pooled := moment.New(window, 8)
	var recycled *mining.Result
	var lastRender string
	for pos, rec := range data.WebViewLike(5).Generate(900) {
		fresh.Push(rec)
		pooled.Push(rec)
		if pos+1 >= window && (pos+1-window)%every == 0 {
			want := fresh.Frequent()
			recycled = pooled.FrequentInto(recycled)
			if want.Len() != recycled.Len() {
				t.Fatalf("pos %d: recycled snapshot has %d itemsets, fresh %d", pos, recycled.Len(), want.Len())
			}
			for i := range want.Itemsets {
				w, g := want.Itemsets[i], recycled.Itemsets[i]
				if w.Support != g.Support || !w.Set.Equal(g.Set) {
					t.Fatalf("pos %d itemset %d: recycled %v/%d, fresh %v/%d",
						pos, i, g.Set, g.Support, w.Set, w.Support)
				}
			}
			lastRender = fmt.Sprintf("%d:%d", pos, recycled.Len())
		}
	}
	if lastRender == "" {
		t.Fatal("stream never published")
	}
	// The recycled result must also index correctly after reuse.
	if recycled.Len() > 0 {
		fi := recycled.Itemsets[0]
		if sup, ok := recycled.Support(fi.Set); !ok || sup != fi.Support {
			t.Fatalf("recycled result index broken: Support(%v) = %d,%v want %d,true",
				fi.Set, sup, ok, fi.Support)
		}
	}
}

// TestPublisherSnapshotRestoreWithPointerCache pins that Snapshot deep-copies
// the pointer-backed republication cache: mutating the publisher after a
// snapshot must not leak into the captured state, and a publisher restored
// from it republishes identically (the §VI resume guarantee).
func TestPublisherSnapshotRestoreWithPointerCache(t *testing.T) {
	seq := minedSequence(t)
	pub := newTestPublisher(t, Hybrid{Lambda: 0.4})
	half := len(seq) / 2
	for _, res := range seq[:half] {
		if _, err := pub.Publish(res, 150); err != nil {
			t.Fatal(err)
		}
	}
	st := pub.Snapshot()
	before := append([]CacheEntry(nil), st.Cache...)

	// Drive the original on; its cache mutations must not reach st.
	var origRenders []string
	for _, res := range seq[half:] {
		out, err := pub.Publish(res, 150)
		if err != nil {
			t.Fatal(err)
		}
		origRenders = append(origRenders, renderOutput(out))
	}
	for i := range before {
		if st.Cache[i] != before[i] {
			t.Fatalf("snapshot cache entry %d changed after further publishing: %+v -> %+v",
				i, before[i], st.Cache[i])
		}
	}

	restored := newTestPublisher(t, Hybrid{Lambda: 0.4})
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i, res := range seq[half:] {
		out, err := restored.Publish(res, 150)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderOutput(out); got != origRenders[i] {
			t.Fatalf("restored publisher diverged at window %d:\n--- original ---\n%s--- restored ---\n%s",
				i, origRenders[i], got)
		}
	}
}
