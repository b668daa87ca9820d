package core

// Allocation pins for the publish hot path. The publisher's per-window
// scratch (FEC arena, ladder memo, batched draws, key buffer, pointer-backed
// republication cache) exists so a steady-state window costs a handful of
// allocations — the Output header and its Items backing — rather than one
// or more per published itemset. These tests pin that property with
// testing.AllocsPerRun so a regression (a map rebuilt per window, a key
// string interned per itemset, a comparator allocating per comparison)
// fails loudly with a number attached.
//
// The bounds are per-WINDOW and deliberately leave headroom over the
// measured steady state (single digits at workers=1; a few dozen at
// workers=8, which pays per-goroutine setup): they are tripwires for
// per-itemset regressions — the mined windows here hold ~140 itemsets, so
// even a single alloc-per-itemset defect blows through them.

import (
	"fmt"
	"testing"

	"repro/internal/itemset"
	"repro/internal/mining"
)

// pinBounds: measured steady state is ~5 allocs/window at workers=1 and
// ~35 at workers=8 (8 goroutines + their key buffers + scheduling).
// A memo miss adds the bias DP's ~13 flat slices, sized once per call.
const (
	allocBoundSequential = 16
	allocBoundChunked    = 96
	allocBoundMemoMiss   = 20
)

// denseResult builds a window with nClasses FECs of perClass itemsets each —
// dense enough that a per-itemset allocation regression overshoots the pin
// by an order of magnitude.
func denseResult(nClasses, perClass, baseSupport int) *mining.Result {
	var sets []mining.FrequentItemset
	next := itemset.Item(0)
	for c := 0; c < nClasses; c++ {
		for k := 0; k < perClass; k++ {
			sets = append(sets, mining.FrequentItemset{
				Set:     itemset.New(next, next+1, next+2),
				Support: baseSupport + c,
			})
			next += 3
		}
	}
	return mining.NewResult(baseSupport, sets)
}

func pinPublishAllocs(t *testing.T, workers int, cacheHits bool) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector's shadow allocations")
	}
	pub := newTestPublisher(t, Hybrid{Lambda: 0.4})
	pub.SetWorkers(workers)
	if !cacheHits {
		// DELIBERATELY INSECURE test mode: disabling consistent
		// republication forces the miss path every window.
		pub.SetRepublicationCache(false)
	}
	steady := denseResult(40, 10, 12)
	// Warm-up: populate the cache, grow every scratch buffer to the
	// window's high-water mark, and warm the bias memo.
	for i := 0; i < 5; i++ {
		if _, err := pub.Publish(steady, 150); err != nil {
			t.Fatal(err)
		}
	}
	bound := float64(allocBoundSequential)
	if workers > 1 {
		bound = allocBoundChunked
	}
	allocs := testing.AllocsPerRun(32, func() {
		if _, err := pub.Publish(steady, 150); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("workers=%d cacheHits=%v: %.1f allocs/window for %d itemsets", workers, cacheHits, allocs, steady.Len())
	if allocs > bound {
		t.Errorf("steady-state Publish allocates %.1f objects/window (workers=%d, cacheHits=%v, %d itemsets), want <= %.0f",
			allocs, workers, cacheHits, steady.Len(), bound)
	}
	// The pin must also stay far below one alloc per itemset — the regime
	// the flat buffers replaced.
	if allocs > float64(steady.Len())/2 {
		t.Errorf("steady-state Publish allocates %.1f objects for %d itemsets — per-itemset allocation is back",
			allocs, steady.Len())
	}
}

func TestPublishAllocsPinned(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for _, hits := range []bool{true, false} {
			name := fmt.Sprintf("workers=%d/hits=%v", workers, hits)
			t.Run(name, func(t *testing.T) { pinPublishAllocs(t, workers, hits) })
		}
	}
	t.Run("workers=1/memo=miss", pinMemoMissAllocs)
}

// pinMemoMissAllocs alternates two FEC ladders, so the bias memo misses and
// the order-preserving DP runs on every window. Its allocations are sized
// once per call, never per class: the pin must read the same count at 20
// and at 60 classes, and stay under a bound below either class count.
func pinMemoMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector's shadow allocations")
	}
	perWindow := map[int]float64{}
	for _, nClasses := range []int{20, 60} {
		pub := newTestPublisher(t, Hybrid{Lambda: 0.4, Order: OrderPreserving{Gamma: 3}})
		// DELIBERATELY INSECURE test mode: only the bias memo is under test.
		pub.SetRepublicationCache(false)
		ladders := []*mining.Result{denseResult(nClasses, 4, 12), denseResult(nClasses, 4, 13)}
		publishBoth := func() {
			for _, res := range ladders {
				if _, err := pub.Publish(res, 150); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 3; i++ {
			publishBoth() // grow every scratch buffer to its high-water mark
		}
		reuses := pub.BiasReuses()
		allocs := testing.AllocsPerRun(16, publishBoth) / float64(len(ladders))
		if pub.BiasReuses() != reuses {
			t.Fatalf("%d classes: the bias memo hit; the two ladders must differ", nClasses)
		}
		t.Logf("%d classes: %.1f allocs/window with the DP on every window", nClasses, allocs)
		if allocs > allocBoundMemoMiss {
			t.Errorf("%d classes: memo-miss Publish allocates %.1f objects/window, want <= %d",
				nClasses, allocs, allocBoundMemoMiss)
		}
		perWindow[nClasses] = allocs
	}
	if perWindow[20] != perWindow[60] {
		t.Errorf("memo-miss allocations grow with the class count: %.1f at 20 classes, %.1f at 60",
			perWindow[20], perWindow[60])
	}
}
