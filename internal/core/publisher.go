package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fec"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/rng"
	"repro/internal/trace"
)

// PublishedItemset is one sanitized entry of the released mining output.
type PublishedItemset struct {
	Set itemset.Itemset
	// Support is the sanitized support T̃(X) = T(X) + β + r.
	Support int
}

// Output is the sanitized mining output of one window — what leaves the
// system. It deliberately carries no true supports.
//
// The lookup index behind Support is built lazily on first use: the publish
// hot path only appends and sorts Items, and most outputs are written out or
// diffed positionally without a single lookup, so interning a key string per
// itemset per window was pure garbage. An Output is safe for concurrent
// reads only once the index exists (call Support once before sharing);
// windows inside the pipeline are owned by one stage at a time.
type Output struct {
	// WindowSize is H; the sliding-window protocol makes it public.
	WindowSize int
	// Items are the published itemsets, sorted by descending sanitized
	// support (ties by size then key), the order a mining frontend displays.
	Items []PublishedItemset

	byKey map[string]int // Key() -> Support, built on first use
}

// index returns the Key() -> Support map, building it on first use.
func (o *Output) index() map[string]int {
	if o.byKey == nil {
		o.byKey = make(map[string]int, len(o.Items))
		for _, it := range o.Items {
			o.byKey[it.Set.Key()] = it.Support
		}
	}
	return o.byKey
}

// Support returns the published support of s.
func (o *Output) Support(s itemset.Itemset) (int, bool) {
	v, ok := o.index()[s.Key()]
	return v, ok
}

// Len returns the number of published itemsets.
func (o *Output) Len() int { return len(o.Items) }

// NewRawOutput packages an unsanitized mining result in the Output format —
// what a system WITHOUT output-privacy protection releases. It exists for
// audits and side-by-side comparisons; production publication goes through
// Publisher.Publish.
func NewRawOutput(res *mining.Result, windowSize int) *Output {
	out := &Output{
		WindowSize: windowSize,
		Items:      make([]PublishedItemset, 0, res.Len()),
	}
	for _, fi := range res.Itemsets {
		out.Items = append(out.Items, PublishedItemset{Set: fi.Set, Support: fi.Support})
	}
	return out
}

// Publisher perturbs mining results window after window. It owns the
// consistent-republication cache that blocks the averaging attack of Prior
// Knowledge 2 (§V-C): as long as an itemset's true support is unchanged
// between consecutive windows, the previously published sanitized value is
// republished verbatim instead of being redrawn.
//
// Publisher is not safe for concurrent use.
type Publisher struct {
	params Params
	scheme Scheme
	src    *rng.Source

	// cache maps itemset.Itemset.Key() strings to republication entries.
	// Entries are pointers so the steady-state hit path can look up with
	// `cache[string(keyBuf)]` (a conversion the compiler elides — zero
	// allocations) and refresh the entry through the pointer; a key string is
	// materialized only when a genuinely new itemset is inserted.
	cache         map[string]*cacheEntry
	cacheDisabled bool
	maxCacheAge   int
	window        int

	// Per-window scratch, reused across Publish calls so a steady-state
	// window allocates almost nothing (see DESIGN.md §2.12 for the ownership
	// rules). All of it holds values only BETWEEN phases of one Publish call;
	// nothing published aliases it.
	classScratch  []fec.Class       // FEC partition of the current window
	memberScratch []itemset.Itemset // flat backing array for classScratch members
	keyBuf        []byte            // AppendKey scratch for cache lookups
	run           chunkRun          // the current window's chunked perturbation

	// Delta-snapshot tracking (SetDeltaTracking): when deltaTrack is on,
	// every cache mutation appends the entry to dirtyCache exactly once per
	// baseline interval, and the age sweep records removed keys in
	// evictedKeys, so SnapshotDelta can serialize only what changed —
	// O(changed), not O(cache). Off by default; the only cost when off is one
	// predictable branch per cache write.
	deltaTrack  bool
	dirtyCache  []*cacheEntry
	evictedKeys []string

	// workers is how many goroutines perturb a window's chunks, the
	// calling one included (see SetWorkers).
	workers int

	// chunkHook, when non-nil, runs at the start of every perturbation
	// chunk. Test-only: fault-injection tests use it to drive the worker
	// panic-recovery path.
	chunkHook func(chunk int)

	// Observability (see telemetry.go): the registered instrument set (nil
	// disables recording; none of it influences published values), and tr,
	// the current window's flight-recorder trace (SetTrace), receiving the
	// bias-optimization and republication-cache child spans.
	metrics *pubMetrics
	tr      *trace.Window
}

// publishChunkClasses is the number of FECs per perturbation chunk. It is a
// fixed constant — NOT derived from the worker count — so that chunk
// boundaries, and therefore every chunk's RNG stream, are identical no
// matter how many workers execute them.
const publishChunkClasses = 4

type cacheEntry struct {
	// key is the entry's own cache key (itemset.Itemset.Key()). It is stored
	// on the entry so delta tracking can emit upserts straight from the dirty
	// list without re-deriving keys from the map.
	key         string
	trueSupport int
	sanitized   int
	lastSeen    int
	// dirty marks the entry as touched since the last snapshot baseline; it
	// is meaningful only while delta tracking is on (SetDeltaTracking).
	dirty bool
}

// NewPublisher validates the parameters and returns a Publisher using the
// given scheme and random source. A nil scheme defaults to Basic; a nil
// source panics (reproducibility is a requirement, not an option).
func NewPublisher(p Params, scheme Scheme, src *rng.Source) (*Publisher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if scheme == nil {
		scheme = Basic{}
	}
	if src == nil {
		panic("core: NewPublisher requires a random source")
	}
	return &Publisher{
		params:      p,
		scheme:      scheme,
		src:         src,
		cache:       map[string]*cacheEntry{},
		maxCacheAge: 64,
	}, nil
}

// Params returns the calibration the publisher was built with.
func (pub *Publisher) Params() Params { return pub.params }

// Scheme returns the active bias-setting scheme.
func (pub *Publisher) Scheme() Scheme { return pub.scheme }

// Publish sanitizes one window's mining result. windowSize is H (used for
// the public output header; it may exceed res's record count during stream
// warm-up).
//
// Publish is retry-safe: every error return leaves the publisher exactly as
// it was before the call — window counter, RNG stream and republication
// cache untouched — so a supervised pipeline may retry the same window and
// obtain the output a fault-free run would have published. The biases are
// recomputed every window from the FEC ladder alone, so no bias state
// carries over from a failed call.
func (pub *Publisher) Publish(res *mining.Result, windowSize int) (*Output, error) {
	if res == nil {
		return nil, fmt.Errorf("core: nil mining result")
	}
	pub.classScratch, pub.memberScratch = fec.PartitionInto(res, pub.classScratch, pub.memberScratch)
	classes := pub.classScratch
	// The bias.opt and cache spans are the publisher's only timers, so the
	// clock is read only when a trace window is attached.
	var t0 time.Time
	if pub.tr != nil {
		t0 = time.Now()
	}
	biases := pub.scheme.Biases(classes, pub.params)
	if pub.tr != nil {
		pub.tr.Add(trace.KindBiasOpt, t0, time.Since(t0))
		t0 = time.Now()
	}
	if len(biases) != len(classes) {
		return nil, fmt.Errorf("core: scheme %s returned %d biases for %d classes",
			pub.scheme.Name(), len(biases), len(classes))
	}
	alpha := pub.params.Alpha()
	half := alpha / 2

	pub.window++
	out := &Output{WindowSize: windowSize}
	savedSrc := *pub.src
	hits, misses, err := pub.perturb(out, classes, biases, half)
	if err != nil {
		// Roll back so a retry redraws the identical perturbation.
		*pub.src = savedSrc
		pub.window--
		return nil, err
	}
	slices.SortFunc(out.Items, func(a, b PublishedItemset) int {
		if a.Support != b.Support {
			return b.Support - a.Support
		}
		if a.Set.Len() != b.Set.Len() {
			return a.Set.Len() - b.Set.Len()
		}
		return itemset.Compare(a.Set, b.Set)
	})
	pub.sweepCache()
	// Observability, strictly after the output is final: cache traffic
	// (telemetry.go), plus the cache child span — it covers the
	// perturbation interval the cache served, carrying the hit/miss tally.
	// No-ops without a registry / trace window.
	pub.recordCache(hits, misses)
	if pub.tr != nil {
		cs := pub.tr.Add(trace.KindCache, t0, time.Since(t0))
		cs.Attr(trace.AttrCacheHits, int64(hits))
		cs.Attr(trace.AttrCacheMisses, int64(misses))
	}
	return out, nil
}

// chunkRun is the shared state of one window's perturbation. It lives on
// the Publisher so that Publish's own goroutine works chunks without
// allocating; helpers read it only between their spawn and wg.Wait.
type chunkRun struct {
	classes    []fec.Class
	biases     []int
	half       int
	shared     bool
	windowSeed uint64
	// items is the window's output, one item per class member in class
	// order; chunk c fills items[firstItem[c]:firstItem[c+1]], so distinct
	// workers write distinct elements.
	items     []PublishedItemset
	firstItem []int
	// probed[i] is the cache entry items[i]'s probe found, nil for an
	// itemset not yet cached. The map and its entries are read-only until
	// every chunk is done, and an itemset appears once per window, so the
	// fan-in updates hits in place and builds a key string only for an
	// itemset it inserts.
	probed []*cacheEntry

	// next is the chunk counter workers claim from: if a worker dies to a
	// recovered panic, the survivors drain the remainder.
	next     atomic.Int64
	wg       sync.WaitGroup
	mu       sync.Mutex
	panicErr error // the first recovered worker panic, under mu
}

// perturb draws the window's perturbation into out.Items. The FEC ladder is
// cut into fixed-size chunks of publishChunkClasses classes; chunk c draws
// from its own rng.Source seeded with Mix(windowSeed, c), where windowSeed
// is one draw from the publisher's stream. Chunk boundaries and seeds
// depend only on the data and the publisher's seed, never on the worker
// count, so every pool size publishes identical output.
//
// The calling goroutine works chunks alongside workers−1 helpers, so a
// single worker starts no goroutine. The republication cache is read-only
// while chunks are drawn; only the single-goroutine fan-in writes it. It
// returns an error — without writing any cache entry — if a worker
// panicked, so Publish can roll the publisher state back and stay
// retry-safe. The hit/miss tally is taken during the fan-in, where each
// entry still holds its pre-window content, so it equals the decisions the
// workers made against that same read-only view.
func (pub *Publisher) perturb(out *Output, classes []fec.Class, biases []int, half int) (hits, misses int, err error) {
	windowSeed := pub.src.Uint64()
	r := &pub.run
	r.firstItem = r.firstItem[:0]
	n := 0
	for ci, class := range classes {
		if ci%publishChunkClasses == 0 {
			r.firstItem = append(r.firstItem, n)
		}
		n += len(class.Members)
	}
	nChunks := len(r.firstItem)
	r.firstItem = append(r.firstItem, n)
	out.Items = make([]PublishedItemset, n)
	r.items = out.Items
	r.probed = slices.Grow(r.probed[:0], n)[:n]
	r.classes, r.biases, r.half = classes, biases, half
	r.shared = pub.scheme.SharedDraws()
	r.windowSeed = windowSeed
	r.next.Store(0)
	r.panicErr = nil

	for w := 1; w < min(pub.workers, nChunks); w++ {
		r.wg.Add(1)
		go pub.helpChunks()
	}
	pub.drawChunks(&pub.keyBuf)
	r.wg.Wait()
	r.items = nil
	if r.panicErr != nil {
		return 0, 0, r.panicErr
	}

	keyBuf := pub.keyBuf
	i := 0
	for _, class := range classes {
		for _, member := range class.Members {
			e, sanitized := r.probed[i], out.Items[i].Support
			i++
			if e != nil && !pub.cacheDisabled && e.trueSupport == class.Support {
				hits++
			} else {
				misses++
			}
			if e != nil {
				e.trueSupport = class.Support
				e.sanitized = sanitized
				e.lastSeen = pub.window
			} else {
				keyBuf = member.AppendKey(keyBuf[:0])
				k := string(keyBuf)
				e = &cacheEntry{
					key:         k,
					trueSupport: class.Support,
					sanitized:   sanitized,
					lastSeen:    pub.window,
				}
				pub.cache[k] = e
			}
			pub.markDirty(e)
		}
	}
	pub.keyBuf = keyBuf
	return hits, misses, nil
}

// helpChunks is one helper goroutine of perturb, with a key buffer of its
// own.
func (pub *Publisher) helpChunks() {
	defer pub.run.wg.Done()
	var keyBuf []byte
	pub.drawChunks(&keyBuf)
}

// drawChunks claims chunks until none is left and perturbs each into its
// range of the run's items, probing the republication cache through
// *keyBuf. A panic is recovered into the run's error.
func (pub *Publisher) drawChunks(keyBuf *[]byte) {
	r := &pub.run
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			if r.panicErr == nil {
				r.panicErr = fmt.Errorf("core: perturbation worker panicked: %v", v)
			}
			r.mu.Unlock()
		}
	}()
	var chunkDraws [publishChunkClasses]int
	for {
		c := int(r.next.Add(1)) - 1
		if c >= len(r.firstItem)-1 {
			return
		}
		if pub.chunkHook != nil {
			pub.chunkHook(c)
		}
		src := rng.New(rng.Mix(r.windowSeed, uint64(c)))
		start := c * publishChunkClasses
		end := min(start+publishChunkClasses, len(r.classes))
		// Shared-draw schemes consume one draw per class from the chunk's
		// source, in order, so they are batched; the basic scheme's
		// per-itemset draws interleave with the per-class ones and stay
		// inline.
		var draws []int
		if r.shared {
			draws = chunkDraws[:end-start]
			src.FillIntRange(-r.half, r.half, draws)
		}
		i := r.firstItem[c]
		for ci := start; ci < end; ci++ {
			class := r.classes[ci]
			// One shared draw per FEC keeps intra-class equality
			// (optimized schemes); the basic scheme redraws per itemset.
			var sharedOffset int
			if r.shared {
				sharedOffset = r.biases[ci] + draws[ci-start]
			} else {
				sharedOffset = r.biases[ci] + src.IntRange(-r.half, r.half)
			}
			for _, member := range class.Members {
				*keyBuf = member.AppendKey((*keyBuf)[:0])
				e := pub.cache[string(*keyBuf)] // alloc-free read-only probe
				var sanitized int
				if e != nil && !pub.cacheDisabled && e.trueSupport == class.Support {
					sanitized = e.sanitized
				} else if r.shared {
					sanitized = class.Support + sharedOffset
				} else {
					sanitized = class.Support + r.biases[ci] + src.IntRange(-r.half, r.half)
				}
				r.items[i] = PublishedItemset{Set: member, Support: sanitized}
				r.probed[i] = e
				i++
			}
		}
	}
}

// SetWorkers sets how many goroutines perturb each window, the calling one
// included (values below 1 mean 1). It sets parallelism only: every worker
// count publishes byte-identical output for a fixed seed, because chunk
// boundaries and per-chunk seeds are functions of the data alone.
func (pub *Publisher) SetWorkers(workers int) {
	pub.workers = max(workers, 1)
}

// SetTrace directs the next Publish call's bias-optimization and
// republication-cache child spans into w, the current window of the
// in-process flight recorder (nil detaches). Tracing is observation-only —
// it never influences published values. The pipeline's perturb stage calls
// this once per window, before Publish, so the spans nest under the right
// window track.
func (pub *Publisher) SetTrace(w *trace.Window) { pub.tr = w }

// sweepCache evicts entries for itemsets that have not been published
// recently, bounding memory on long streams without re-randomizing values
// that reappear quickly with unchanged support.
func (pub *Publisher) sweepCache() {
	if pub.window%16 != 0 {
		return
	}
	for k, e := range pub.cache {
		if pub.window-e.lastSeen > pub.maxCacheAge {
			delete(pub.cache, k)
			if pub.deltaTrack {
				pub.evictedKeys = append(pub.evictedKeys, k)
			}
		}
	}
}

// markDirty records e in the dirty list the first time it is touched inside
// the current baseline interval. A cache hit that merely refreshes lastSeen
// still counts: lastSeen drives future age-sweep evictions, which influence
// published bytes, so it must travel in the delta.
func (pub *Publisher) markDirty(e *cacheEntry) {
	if pub.deltaTrack && !e.dirty {
		e.dirty = true
		pub.dirtyCache = append(pub.dirtyCache, e)
	}
}

// CacheLen reports the number of live republication-cache entries
// (diagnostics and tests).
func (pub *Publisher) CacheLen() int { return len(pub.cache) }

// SetRepublicationCache enables or disables consistent republication
// (enabled by default). Disabling it redraws the perturbation every window
// even for unchanged supports — DELIBERATELY INSECURE: it re-opens the
// averaging attack of Prior Knowledge 2 and exists only so experiments and
// tests can demonstrate that attack.
func (pub *Publisher) SetRepublicationCache(enabled bool) {
	pub.cacheDisabled = !enabled
}
