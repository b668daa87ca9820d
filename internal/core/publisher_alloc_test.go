package core

// Allocation pins for the publish hot path. The publisher's per-window
// scratch (FEC arena, key buffer, chunk-run buffers, pointer-backed
// republication cache) exists so a steady-state window costs a handful of
// allocations — the Output header, its Items backing and the bias DP's
// per-call buffers — rather than one or more per published itemset, or per
// class. These tests pin that property with
// testing.AllocsPerRun so a regression (a map rebuilt per window, a key
// string interned per itemset, a comparator allocating per comparison)
// fails loudly with a number attached.
//
// The bounds are per-WINDOW and deliberately leave headroom over the
// measured steady state (single digits at workers=1, which starts no
// goroutine; more at workers=8, which pays per-goroutine setup): they are
// tripwires for
// per-itemset regressions — the mined windows here hold ~140 itemsets, so
// even a single alloc-per-itemset defect blows through them.

import (
	"fmt"
	"testing"

	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/telemetry"
)

// pinBounds: measured steady state is 11 allocs/window at workers=1 — the
// Output header and its Items backing, plus one hybrid bias call (γ = 2),
// whose ~9 buffers are sized once per call — and ~18 at workers=8, which
// adds 7 helper goroutines, their key buffers and scheduling.
const (
	allocBoundWorkers1 = 16
	allocBoundWorkers8 = 96
	allocBoundMemoMiss = 20
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

func pinPublishAllocs(t *testing.T, workers int, cacheHits, registry bool) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector's shadow allocations")
	}
	pub := newTestPublisher(t, Hybrid{Lambda: 0.4})
	pub.SetWorkers(workers)
	if registry {
		// Telemetry reads every published itemset's sanitized support; it
		// must do so without an allocation per itemset.
		pub.SetMetrics(telemetry.NewRegistry())
	}
	if !cacheHits {
		// DELIBERATELY INSECURE test mode: disabling consistent
		// republication forces the miss path every window.
		pub.SetRepublicationCache(false)
	}
	steady := denseResult(40, 10, 12)
	// Warm-up: populate the cache and grow every scratch buffer to the
	// window's high-water mark.
	for i := 0; i < 5; i++ {
		if _, err := pub.Publish(steady, 150); err != nil {
			t.Fatal(err)
		}
	}
	bound := float64(allocBoundWorkers1)
	if workers > 1 {
		bound = allocBoundWorkers8
	}
	allocs := testing.AllocsPerRun(32, func() {
		if _, err := pub.Publish(steady, 150); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("workers=%d cacheHits=%v registry=%v: %.1f allocs/window for %d itemsets",
		workers, cacheHits, registry, allocs, steady.Len())
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
			t.Run(name, func(t *testing.T) { pinPublishAllocs(t, workers, hits, false) })
		}
		name := fmt.Sprintf("workers=%d/hits=true/registry", workers)
		t.Run(name, func(t *testing.T) { pinPublishAllocs(t, workers, true, true) })
	}
	t.Run("workers=1/memo=miss", pinMemoMissAllocs)
}

// pinMemoMissAllocs pins the bias DP's share of a window: it alternates two
// FEC ladders through a hybrid scheme at γ = 3, and the DP runs on every
// window, as it does for every window of a stream. Its allocations are sized
// once per call, never per class: the pin must read the same count at 20
// and at 60 classes, and stay under a bound below either class count.
func pinMemoMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector's shadow allocations")
	}
	perWindow := map[int]float64{}
	for _, nClasses := range []int{20, 60} {
		pub := newTestPublisher(t, Hybrid{Lambda: 0.4, Order: OrderPreserving{Gamma: 3}})
		// DELIBERATELY INSECURE test mode: only the bias DP is under test.
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
		allocs := testing.AllocsPerRun(16, publishBoth) / float64(len(ladders))
		t.Logf("%d classes: %.1f allocs/window with the DP on every window", nClasses, allocs)
		if allocs > allocBoundMemoMiss {
			t.Errorf("%d classes: Publish allocates %.1f objects/window, want <= %d",
				nClasses, allocs, allocBoundMemoMiss)
		}
		perWindow[nClasses] = allocs
	}
	if perWindow[20] != perWindow[60] {
		t.Errorf("Publish allocations grow with the class count: %.1f at 20 classes, %.1f at 60",
			perWindow[20], perWindow[60])
	}
}
