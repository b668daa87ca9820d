package core

// This file is the publisher's observability surface: the health of the
// consistent-republication cache, exported through the telemetry registry.
//
// Everything here is recorded AFTER a window's perturbation is complete,
// from counts the publisher already holds. No recording touches the RNG
// stream, the cache contents, or the draw order, so telemetry-on and
// telemetry-off runs publish identical bytes (the pipeline's A/B tests
// enforce this). No instrument here is computed from the magnitude of a
// true support: a gauge of a window's §V-C posture, such as its mean
// (T̃−T)², would let a scraper solve a one-itemset window for its true
// support, so those measures stay offline, in cmd/experiments.

import "repro/internal/telemetry"

// Publisher metric names (see OBSERVABILITY.md for the full reference).
const (
	MetricCacheHits    = "butterfly_cache_hits_total"
	MetricCacheMisses  = "butterfly_cache_misses_total"
	MetricCacheEntries = "butterfly_cache_entries"
)

// pubMetrics holds the publisher's registered instruments.
type pubMetrics struct {
	cacheHits    *telemetry.Counter
	cacheMisses  *telemetry.Counter
	cacheEntries *telemetry.Gauge
}

// SetMetrics registers the publisher's instruments on reg and starts
// recording; a nil reg detaches telemetry. Recording is observation-only:
// it never changes published values (see the file comment).
func (pub *Publisher) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		pub.metrics = nil
		return
	}
	pub.metrics = &pubMetrics{
		cacheHits: reg.Counter(MetricCacheHits,
			"Published itemsets re-served verbatim from the republication cache.", nil),
		cacheMisses: reg.Counter(MetricCacheMisses,
			"Published itemsets drawn fresh (no usable cache entry).", nil),
		cacheEntries: reg.Gauge(MetricCacheEntries,
			"Live republication-cache entries after the last sweep.", nil),
	}
}

// recordCache adds one window's cache traffic and the post-sweep size.
func (pub *Publisher) recordCache(hits, misses int) {
	m := pub.metrics
	if m == nil {
		return
	}
	m.cacheHits.Add(uint64(hits))
	m.cacheMisses.Add(uint64(misses))
	m.cacheEntries.Set(float64(len(pub.cache)))
}
