package core

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fec"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/rng"
)

func resultWith(t *testing.T, pairs map[int][]itemset.Itemset) *mining.Result {
	t.Helper()
	var sets []mining.FrequentItemset
	for sup, members := range pairs {
		for _, m := range members {
			sets = append(sets, mining.FrequentItemset{Set: m, Support: sup})
		}
	}
	return mining.NewResult(25, sets)
}

func TestNewPublisherValidates(t *testing.T) {
	if _, err := NewPublisher(Params{}, nil, rng.New(1)); err == nil {
		t.Error("invalid params accepted")
	}
	pub, err := NewPublisher(testParams(), nil, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if pub.Scheme().Name() != "basic" {
		t.Error("nil scheme did not default to basic")
	}
}

func TestNewPublisherPanicsOnNilSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil source did not panic")
		}
	}()
	_, _ = NewPublisher(testParams(), nil, nil)
}

func TestPublishPerturbsWithinRegion(t *testing.T) {
	p := testParams()
	pub, err := NewPublisher(p, Basic{}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	res := resultWith(t, map[int][]itemset.Itemset{
		25: {itemset.New(1)},
		40: {itemset.New(2)},
		90: {itemset.New(3)},
	})
	out, err := pub.Publish(res, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 || out.WindowSize != 2000 {
		t.Fatalf("output shape wrong: %d items", out.Len())
	}
	half := p.Alpha() / 2
	for _, fi := range res.Itemsets {
		san, ok := out.Support(fi.Set)
		if !ok {
			t.Fatalf("itemset %v missing from output", fi.Set)
		}
		if d := san - fi.Support; d < -half || d > half {
			t.Errorf("basic offset %d outside ±%d", d, half)
		}
	}
}

func TestPublishEmptyResult(t *testing.T) {
	pub, _ := NewPublisher(testParams(), nil, rng.New(1))
	out, err := pub.Publish(mining.NewResult(25, nil), 100)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("empty result published %d items", out.Len())
	}
}

func TestPublishNilResult(t *testing.T) {
	pub, _ := NewPublisher(testParams(), nil, rng.New(1))
	if _, err := pub.Publish(nil, 100); err == nil {
		t.Error("nil result accepted")
	}
}

// Prior Knowledge 2: unchanged supports republish the identical sanitized
// value across consecutive windows, blocking the averaging attack.
func TestConsistentRepublication(t *testing.T) {
	pub, _ := NewPublisher(testParams(), Basic{}, rng.New(3))
	res := resultWith(t, map[int][]itemset.Itemset{
		40: {itemset.New(1)},
		60: {itemset.New(2)},
	})
	first, err := pub.Publish(res, 100)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 50; w++ {
		out, err := pub.Publish(res, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, item := range first.Items {
			got, ok := out.Support(item.Set)
			if !ok || got != item.Support {
				t.Fatalf("window %d: republished %d, first was %d", w, got, item.Support)
			}
		}
	}
}

func TestRepublicationRedrawsOnSupportChange(t *testing.T) {
	pub, _ := NewPublisher(testParams(), Basic{}, rng.New(3))
	mk := func(sup int) *mining.Result {
		return resultWith(t, map[int][]itemset.Itemset{sup: {itemset.New(1)}})
	}
	// Publish at support 40 repeatedly, then change to 41: the cached value
	// must not persist (E[T̃] tracks the new support).
	var v40 int
	out, _ := pub.Publish(mk(40), 100)
	v40, _ = out.Support(itemset.New(1))
	out2, _ := pub.Publish(mk(40), 100)
	if got, _ := out2.Support(itemset.New(1)); got != v40 {
		t.Fatal("same support did not republish")
	}
	// After the change the published value must center on 41, and over many
	// redraw trials differ from the old cached value at least sometimes.
	diff := false
	for i := 0; i < 20; i++ {
		o41, _ := pub.Publish(mk(41), 100)
		got, _ := o41.Support(itemset.New(1))
		if got != v40 {
			diff = true
		}
		o40, _ := pub.Publish(mk(40), 100)
		if got, _ = o40.Support(itemset.New(1)); got == 0 {
			t.Fatal("lost itemset")
		}
	}
	if !diff {
		t.Error("support change never produced a fresh draw")
	}
}

// The averaging attack the republication cache blocks: publishing the same
// support W times must NOT let the mean of observations converge to the
// true support any better than a single observation.
func TestRepublicationBlocksAveraging(t *testing.T) {
	p := testParams()
	const trials = 300
	var errCached, errFresh float64
	for seed := 0; seed < trials; seed++ {
		pub, _ := NewPublisher(p, Basic{}, rng.New(uint64(seed)))
		res := resultWith(t, map[int][]itemset.Itemset{40: {itemset.New(1)}})
		sum := 0.0
		const windows = 30
		for w := 0; w < windows; w++ {
			out, _ := pub.Publish(res, 100)
			v, _ := out.Support(itemset.New(1))
			sum += float64(v)
		}
		avg := sum / windows
		errCached += (avg - 40) * (avg - 40)

		// A broken publisher that redraws every window: averaging works.
		src := rng.New(uint64(seed) + 7777)
		sum = 0
		half := p.Alpha() / 2
		for w := 0; w < windows; w++ {
			sum += float64(40 + src.IntRange(-half, half))
		}
		avg = sum / windows
		errFresh += (avg - 40) * (avg - 40)
	}
	errCached /= trials
	errFresh /= trials
	// With the cache the averaging error stays at full single-draw variance;
	// without it the error shrinks by ~the number of windows.
	if errCached < 3*errFresh {
		t.Errorf("averaging attack not blocked: cached MSE %v vs fresh MSE %v",
			errCached, errFresh)
	}
}

// Shared draws keep FEC members identical after sanitization.
func TestSharedDrawsPreserveFECEquality(t *testing.T) {
	pub, _ := NewPublisher(testParams(), RatioPreserving{}, rng.New(5))
	res := resultWith(t, map[int][]itemset.Itemset{
		40: {itemset.New(1), itemset.New(2), itemset.New(3)},
		70: {itemset.New(4), itemset.New(5)},
	})
	out, err := pub.Publish(res, 100)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := out.Support(itemset.New(1))
	v2, _ := out.Support(itemset.New(2))
	v3, _ := out.Support(itemset.New(3))
	if v1 != v2 || v2 != v3 {
		t.Errorf("FEC members diverged: %d %d %d", v1, v2, v3)
	}
	v4, _ := out.Support(itemset.New(4))
	v5, _ := out.Support(itemset.New(5))
	if v4 != v5 {
		t.Errorf("FEC members diverged: %d %d", v4, v5)
	}
}

// Empirical moments of the basic perturbation: mean ≈ true support (zero
// bias), variance ≈ σ².
func TestPerturbationMoments(t *testing.T) {
	p := testParams()
	const trials = 20000
	src := rng.New(99)
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		pub, _ := NewPublisher(p, Basic{}, src.Split())
		res := resultWith(t, map[int][]itemset.Itemset{50: {itemset.New(1)}})
		out, _ := pub.Publish(res, 100)
		v, _ := out.Support(itemset.New(1))
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean-50) > 0.1 {
		t.Errorf("mean = %v, want ≈ 50", mean)
	}
	if math.Abs(variance-p.Sigma2())/p.Sigma2() > 0.06 {
		t.Errorf("variance = %v, want ≈ σ² = %v", variance, p.Sigma2())
	}
}

func TestOutputSortedBySanitizedSupport(t *testing.T) {
	pub, _ := NewPublisher(testParams(), Basic{}, rng.New(11))
	res := resultWith(t, map[int][]itemset.Itemset{
		30: {itemset.New(1)}, 60: {itemset.New(2)}, 90: {itemset.New(3)},
	})
	out, _ := pub.Publish(res, 100)
	for i := 1; i < len(out.Items); i++ {
		if out.Items[i].Support > out.Items[i-1].Support {
			t.Fatal("output not sorted by descending sanitized support")
		}
	}
}

func TestCacheSweep(t *testing.T) {
	pub, _ := NewPublisher(testParams(), Basic{}, rng.New(13))
	pub.maxCacheAge = 4
	// Publish an itemset once, then keep publishing a different one.
	resA := resultWith(t, map[int][]itemset.Itemset{40: {itemset.New(1)}})
	resB := resultWith(t, map[int][]itemset.Itemset{40: {itemset.New(2)}})
	if _, err := pub.Publish(resA, 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := pub.Publish(resB, 100); err != nil {
			t.Fatal(err)
		}
	}
	if pub.CacheLen() != 1 {
		t.Errorf("cache has %d entries after sweep, want 1", pub.CacheLen())
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []int {
		pub, _ := NewPublisher(testParams(), Hybrid{Lambda: 0.4}, rng.New(42))
		res := resultWith(t, map[int][]itemset.Itemset{
			30: {itemset.New(1)}, 55: {itemset.New(2), itemset.New(3)},
		})
		out, _ := pub.Publish(res, 100)
		var vals []int
		for _, it := range out.Items {
			vals = append(vals, it.Support)
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different outputs")
		}
	}
}

// flakyScheme misbehaves (wrong bias count) for its first failUntil calls,
// then delegates to the wrapped scheme. It drives the Publish error paths
// that the retry-safety contract covers.
type flakyScheme struct {
	Scheme
	calls     int
	failUntil int
}

func (s *flakyScheme) Biases(classes []fec.Class, p Params) []int {
	s.calls++
	if s.calls <= s.failUntil {
		return nil // wrong length: rejected by the publisher
	}
	return s.Scheme.Biases(classes, p)
}

// TestPublishRetrySafeAfterSchemeError: a Publish call that fails must leave
// the publisher state (window counter, RNG, cache) untouched, so
// the retried call publishes exactly what a fault-free publisher would have.
func TestPublishRetrySafeAfterSchemeError(t *testing.T) {
	res := resultWith(t, map[int][]itemset.Itemset{
		30: {itemset.New(1), itemset.New(2)}, 40: {itemset.New(3)}, 55: {itemset.New(1, 3)},
	})
	p := testParams()
	for _, workers := range []int{1, 4} {
		flaky, _ := NewPublisher(p, &flakyScheme{Scheme: Hybrid{Lambda: 0.4}, failUntil: 1}, rng.New(9))
		flaky.SetWorkers(workers)
		if _, err := flaky.Publish(res, 100); err == nil {
			t.Fatalf("workers=%d: misbehaving scheme accepted", workers)
		}
		got, err := flaky.Publish(res, 100) // the retry
		if err != nil {
			t.Fatalf("workers=%d: retry failed: %v", workers, err)
		}

		clean, _ := NewPublisher(p, Hybrid{Lambda: 0.4}, rng.New(9))
		clean.SetWorkers(workers)
		want, err := clean.Publish(res, 100)
		if err != nil {
			t.Fatal(err)
		}
		sameOutputs(t, fmt.Sprintf("retry after scheme error, workers=%d", workers),
			[]*Output{want}, []*Output{got})
	}
}

// TestPublishRecoversWorkerPanic: a panic inside a perturbation chunk is
// recovered into an error, the publisher state rolls back, and the retried
// Publish matches a fault-free run byte for byte. At workers=1 the panic
// fires on Publish's own goroutine.
func TestPublishRecoversWorkerPanic(t *testing.T) {
	res := resultWith(t, map[int][]itemset.Itemset{
		30: {itemset.New(1), itemset.New(2)}, 40: {itemset.New(3)},
		55: {itemset.New(1, 3)}, 70: {itemset.New(4)}, 90: {itemset.New(5)},
	})
	p := testParams()
	for _, workers := range []int{1, 4} {
		flaky, _ := NewPublisher(p, Hybrid{Lambda: 0.4}, rng.New(9))
		flaky.SetWorkers(workers)
		var fired atomic.Bool
		flaky.chunkHook = func(int) {
			if fired.CompareAndSwap(false, true) {
				panic("injected chunk panic")
			}
		}
		if _, err := flaky.Publish(res, 100); err == nil {
			t.Fatalf("workers=%d: worker panic not surfaced as an error", workers)
		} else if !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("workers=%d: unexpected error: %v", workers, err)
		}
		if flaky.CacheLen() != 0 {
			t.Fatalf("workers=%d: failed publish wrote %d cache entries", workers, flaky.CacheLen())
		}
		flaky.chunkHook = nil
		got, err := flaky.Publish(res, 100)
		if err != nil {
			t.Fatalf("workers=%d: retry failed: %v", workers, err)
		}

		clean, _ := NewPublisher(p, Hybrid{Lambda: 0.4}, rng.New(9))
		clean.SetWorkers(workers)
		want, err := clean.Publish(res, 100)
		if err != nil {
			t.Fatal(err)
		}
		sameOutputs(t, fmt.Sprintf("retry after worker panic, workers=%d", workers),
			[]*Output{want}, []*Output{got})
	}
}
