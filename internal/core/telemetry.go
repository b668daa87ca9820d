package core

// This file is the publisher's observability surface: the live
// privacy/utility posture of the release stream (§V-C of the paper) and the
// health of the consistent-republication cache, exported through the
// telemetry registry.
//
// Everything here is computed AFTER a window's perturbation is complete,
// from values the publisher already holds — true supports from the FEC
// partition and sanitized supports from the assembled output. No metric
// computation touches the RNG stream, the cache contents, or the draw
// order, so telemetry-on and telemetry-off runs publish identical bytes
// (the pipeline's A/B tests enforce this).
//
// The §V-C gauges are ROLLING aggregates over the last privacyRollWindows
// published windows, computed window-locally: each window's pred/ropp/rrpp
// needs only that window's (true, sanitized) pairs, which exist exactly
// once, inside Publish — buffering whole windows for a cross-window
// recomputation would couple memory to window size for no extra fidelity.
// avg_prig is the one metric whose faithful form (an adversary's inference
// error over vulnerable patterns) requires the attack simulation of
// internal/experiment; running an attack per published window is not a
// hot-path option, so the gauge reports the empirical guarantee proxy
//
//	2 · mean((T̃(X) − T(X))²) / K²
//
// — the realized perturbation energy pushed through the paper's P2 bound
// (every inference combines at least two perturbed supports, and vulnerable
// patterns have T(p) ≤ K). It converges to 2(σ²+β²)/K² ≥ PrivacyFloor ≥ δ,
// so an operator alarm on `avg_prig < δ` is sound; offline avg_prig stays
// with cmd/experiments.

import (
	"repro/internal/fec"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Publisher metric names (see OBSERVABILITY.md for the full reference).
const (
	MetricCacheHits    = "butterfly_cache_hits_total"
	MetricCacheMisses  = "butterfly_cache_misses_total"
	MetricCacheEntries = "butterfly_cache_entries"
	MetricBiasReuses   = "butterfly_bias_reuses_total"
	MetricAvgPred      = "butterfly_privacy_avg_pred"
	MetricAvgPrig      = "butterfly_privacy_avg_prig"
	MetricROPP         = "butterfly_privacy_ropp"
	MetricRRPP         = "butterfly_privacy_rrpp"
)

// privacyRollWindows is the length of the rolling aggregate behind the
// §V-C gauges.
const privacyRollWindows = 32

// metricsPairCap bounds the itemsets entering the O(n²) order/ratio rates;
// the first metricsPairCap published itemsets in FEC-ladder order (a
// deterministic, support-sorted prefix) stand in for the full window.
const metricsPairCap = 256

// rrppK is the ratio tightness of the rrpp gauge — the paper's 0.95, the
// same default cmd/experiments uses.
const rrppK = 0.95

// pubMetrics holds the publisher's registered instruments.
type pubMetrics struct {
	cacheHits    *telemetry.Counter
	cacheMisses  *telemetry.Counter
	cacheEntries *telemetry.Gauge
	biasReuses   *telemetry.Counter
	avgPred      *telemetry.Gauge
	avgPrig      *telemetry.Gauge
	ropp         *telemetry.Gauge
	rrpp         *telemetry.Gauge
}

// windowPosture is one window's contribution to the rolling gauges.
type windowPosture struct {
	pred, prig, ropp, rrpp float64
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
		biasReuses: reg.Counter(MetricBiasReuses,
			"Publish calls that reused the previous window's bias optimization.", nil),
		avgPred: reg.Gauge(MetricAvgPred,
			"Rolling mean precision degradation of published supports (bounded by epsilon).", nil),
		avgPrig: reg.Gauge(MetricAvgPrig,
			"Rolling empirical privacy-guarantee proxy 2*mean(noise^2)/K^2 (floored by delta).", nil),
		ropp: reg.Gauge(MetricROPP,
			"Rolling rate of order-preserved pairs among published supports.", nil),
		rrpp: reg.Gauge(MetricRRPP,
			"Rolling rate of ratio-preserved pairs (tightness k=0.95).", nil),
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

// recordPosture computes the window-local §V-C measures from the FEC
// partition (true supports) and the perturbed items (sanitized supports),
// pushes them into the rolling ring, and refreshes the gauges with the
// rolling means. items must be the output in perturbation order — before
// Publish sorts it — where it lines up one-to-one with the classes'
// members, so the two are walked in lockstep instead of looked up by key.
func (pub *Publisher) recordPosture(classes []fec.Class, items []PublishedItemset) {
	if pub.metrics == nil {
		return
	}
	pairs := pub.pairScratch[:0]
	var sumPred, sumSq float64
	n := 0
	for _, class := range classes {
		for range class.Members {
			san := items[n].Support
			d := float64(san - class.Support)
			t := float64(class.Support)
			sumPred += (d / t) * (d / t)
			sumSq += d * d
			n++
			if len(pairs) < metricsPairCap {
				pairs = append(pairs, metrics.Pair{True: class.Support, Sanitized: san})
			}
		}
	}
	pub.pairScratch = pairs
	if n == 0 {
		return
	}
	k := float64(pub.params.VulnSupport)
	posture := windowPosture{
		pred: sumPred / float64(n),
		prig: 2 * (sumSq / float64(n)) / (k * k),
		ropp: metrics.ROPP(pairs),
		rrpp: metrics.RRPP(pairs, rrppK),
	}
	pub.roll[pub.rollNext%privacyRollWindows] = posture
	pub.rollNext++
	span := pub.rollNext
	if span > privacyRollWindows {
		span = privacyRollWindows
	}
	var sum windowPosture
	for i := 0; i < span; i++ {
		p := pub.roll[i]
		sum.pred += p.pred
		sum.prig += p.prig
		sum.ropp += p.ropp
		sum.rrpp += p.rrpp
	}
	m := pub.metrics
	m.avgPred.Set(sum.pred / float64(span))
	m.avgPrig.Set(sum.prig / float64(span))
	m.ropp.Set(sum.ropp / float64(span))
	m.rrpp.Set(sum.rrpp / float64(span))
}

// recordBiasReuse counts one incremental-path reuse.
func (pub *Publisher) recordBiasReuse() {
	if pub.metrics != nil {
		pub.metrics.biasReuses.Inc()
	}
}
