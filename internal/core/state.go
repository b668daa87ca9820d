package core

// This file is the durability boundary of the publisher: Snapshot captures
// everything Publish consults that is not derivable from the Config — the
// window counter, the RNG cursor and the consistent-republication cache —
// and Restore rebuilds a publisher from it. (The biases are a function of
// each window's FEC ladder, recomputed every window, so no bias state is
// captured.) A
// publisher restored from a snapshot taken at window w publishes windows
// w+1, w+2, ... byte-identically to the publisher the snapshot was taken
// from. That is what makes crash-and-resume safe against the republication
// attack of §VI: a resumed stream re-serves the SAME sanitized values for
// unchanged supports instead of re-drawing fresh noise an adversary could
// average out.

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/itemset"
)

// CacheEntry is one serialized republication-cache binding. Key is the
// compact itemset.Itemset.Key() encoding (binary, not printable).
type CacheEntry struct {
	Key         string
	TrueSupport int
	Sanitized   int
	LastSeen    int
}

// PublisherState is the complete serializable state of a Publisher. All
// fields are data, none are configuration: a restored publisher must be
// built with the same Params, Scheme and seed lineage as the one
// snapshotted (any worker count) — the checkpoint layer fingerprints the
// configuration to enforce that.
type PublisherState struct {
	// Window is the number of Publish calls completed.
	Window int
	// RNG is the perturbation source cursor (rng.Source.State).
	RNG uint64
	// Cache holds the republication cache sorted by Key, so snapshots of
	// equal publishers serialize to equal bytes.
	Cache []CacheEntry
}

// PublisherDelta is the publisher-side payload of an incremental (delta)
// checkpoint: everything that changed since the previous snapshot baseline.
// The window counter and RNG cursor are tiny and change every window, so
// they travel whole; the republication cache — the bulk of a full
// snapshot — travels as upserts and evictions only. Applying a delta to the
// baseline state (evictions first, then upserts) reproduces the full state a
// Snapshot at the same moment would have captured.
type PublisherDelta struct {
	// Window and RNG are absolute values, not differences.
	Window int
	RNG    uint64
	// Upserts are the cache entries created or refreshed since the baseline,
	// sorted by Key; Evicted are the keys the age sweep removed since then,
	// sorted and deduplicated. A key may appear in both (evicted, then
	// re-published); eviction-before-upsert ordering makes that correct.
	Upserts []CacheEntry
	Evicted []string
}

// SetDeltaTracking turns dirty-entry tracking on or off and resets the
// baseline either way. With tracking on, every Snapshot or SnapshotDelta
// call starts a new baseline interval; SnapshotDelta then captures exactly
// the cache traffic of the interval. The checkpoint layer enables tracking
// only when delta checkpointing is configured, so the default publisher pays
// nothing for it.
func (pub *Publisher) SetDeltaTracking(on bool) {
	pub.deltaTrack = on
	pub.resetDeltaBaseline()
}

// resetDeltaBaseline clears the dirty flags and drops the accumulated
// upsert/eviction lists, starting a fresh interval.
func (pub *Publisher) resetDeltaBaseline() {
	for _, e := range pub.dirtyCache {
		e.dirty = false
	}
	pub.dirtyCache = pub.dirtyCache[:0]
	pub.evictedKeys = pub.evictedKeys[:0]
}

// SnapshotDelta captures the change set since the previous baseline and
// starts a new one. It shares nothing with the publisher. It must only be
// called with delta tracking on and with an earlier Snapshot (or restored
// state) as the baseline; the checkpoint layer enforces that pairing by
// construction (a chain always starts with a full snapshot).
func (pub *Publisher) SnapshotDelta() *PublisherDelta {
	d := &PublisherDelta{
		Window:  pub.window,
		RNG:     pub.src.State(),
		Upserts: make([]CacheEntry, 0, len(pub.dirtyCache)),
	}
	for _, e := range pub.dirtyCache {
		if pub.cache[e.key] != e {
			// Evicted since it was marked (possibly replaced by a fresh
			// entry, which carries its own dirty mark). The eviction itself
			// is in Evicted; serializing the dead entry would resurrect it.
			continue
		}
		d.Upserts = append(d.Upserts, CacheEntry{
			Key:         e.key,
			TrueSupport: e.trueSupport,
			Sanitized:   e.sanitized,
			LastSeen:    e.lastSeen,
		})
	}
	sort.Slice(d.Upserts, func(i, j int) bool { return d.Upserts[i].Key < d.Upserts[j].Key })
	d.Evicted = append([]string(nil), pub.evictedKeys...)
	sort.Strings(d.Evicted)
	d.Evicted = slices.Compact(d.Evicted)
	pub.resetDeltaBaseline()
	return d
}

// Snapshot captures the publisher's state. The returned value shares
// nothing with the publisher; mutating one never disturbs the other.
// With delta tracking on it also resets the change-set baseline: every
// snapshot of either kind is a chain link, and the next SnapshotDelta is
// relative to the most recent one.
func (pub *Publisher) Snapshot() *PublisherState {
	st := &PublisherState{
		Window: pub.window,
		RNG:    pub.src.State(),
		Cache:  make([]CacheEntry, 0, len(pub.cache)),
	}
	for k, e := range pub.cache {
		st.Cache = append(st.Cache, CacheEntry{
			Key:         k,
			TrueSupport: e.trueSupport,
			Sanitized:   e.sanitized,
			LastSeen:    e.lastSeen,
		})
	}
	sort.Slice(st.Cache, func(i, j int) bool { return st.Cache[i].Key < st.Cache[j].Key })
	if pub.deltaTrack {
		pub.resetDeltaBaseline()
	}
	return st
}

// Restore overwrites the publisher's state with a previously captured
// snapshot. Configuration (params, scheme, workers, cache policy) is
// left untouched. It validates the snapshot's internal consistency so a
// decoded-but-nonsensical checkpoint fails loudly here rather than
// corrupting later windows.
func (pub *Publisher) Restore(st *PublisherState) error {
	if st == nil {
		return fmt.Errorf("core: nil publisher state")
	}
	if st.Window < 0 {
		return fmt.Errorf("core: publisher state with negative window counter %d", st.Window)
	}
	pub.window = st.Window
	pub.src.SetState(st.RNG)
	pub.cache = make(map[string]*cacheEntry, len(st.Cache))
	for _, e := range st.Cache {
		pub.cache[e.Key] = &cacheEntry{
			key:         e.Key,
			trueSupport: e.TrueSupport,
			sanitized:   e.Sanitized,
			lastSeen:    e.LastSeen,
		}
	}
	pub.resetDeltaBaseline()
	return nil
}

// WindowRecords returns the miner's current sliding-window content in
// stream order (oldest first) — the transaction buffer a checkpoint stores
// so a resumed stream can rebuild the mining state without replaying the
// whole prefix. The slice is freshly allocated; the itemsets are immutable.
func (s *Stream) WindowRecords() []itemset.Itemset { return s.miner.Window() }
