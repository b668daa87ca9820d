package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: p99 needs 1,000 samples, p90 needs 100, p50 needs 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, and false
// when fewer than minBeyond samples lie beyond it — the caller then omits
// the figure and says so rather than report a tail it did not observe.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	// The epsilon keeps p·n exact where floating point overshoots (0.9·100
	// is 90.00000000000001).
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], true
}

// maxSegments caps how many consecutive segments a phase's samples are cut
// into for segmentedPercentile.
const maxSegments = 5

// segmentedPercentile cuts xs, in the order measured, into as many equal
// consecutive segments (up to maxSegments) as still each hold enough samples
// for the p-quantile, and returns the median of the segments' quantiles. On
// a machine whose speed drifts by a tenth from one second to the next, one
// slow stretch then moves one segment, not the reported figure. False when
// not even one segment qualifies.
func segmentedPercentile(xs []float64, p float64) (float64, bool) {
	need := int(math.Round(minBeyond / (1 - p)))
	k := min(maxSegments, len(xs)/need)
	if k == 0 {
		return 0, false
	}
	seg := len(xs) / k
	vals := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		v, ok := percentile(xs[i*seg:(i+1)*seg], p)
		if !ok {
			return 0, false
		}
		vals = append(vals, v)
	}
	return median(vals), true
}

// median is the middle value (mean of the two middle values for even n); 0
// for no samples. Unlike percentile it is always reported: it is the
// summary of repeated set-up and per-window costs, not of a tail.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// dueOffset is when open-loop batch i (0-based) of `batch` records is due,
// relative to the phase start, at `rate` records per second. It is computed
// from i directly, never by accumulating intervals, so the schedule cannot
// drift however long the phase runs.
func dueOffset(i, batch int, rate float64) time.Duration {
	return time.Duration(float64(i) * float64(batch) / rate * float64(time.Second))
}

// lateness is how long after its due time a request was actually sent; a
// request sent on time (or, impossibly, early) is 0 late.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pacer waits for open-loop due times. time.Sleep wakes about a millisecond
// late on Linux (the runtime's poller sleeps in whole milliseconds), which
// would be most of a POST's round trip, so the pacer sleeps short by its
// running estimate of that oversleep and yields the processor in a loop for
// the last ~100 µs.
type pacer struct {
	oversleep time.Duration
}

func (p *pacer) wait(due time.Time) {
	if p.oversleep == 0 {
		p.oversleep = time.Millisecond
	}
	if d := time.Until(due) - p.oversleep - 100*time.Microsecond; d > 0 {
		t0 := time.Now()
		time.Sleep(d)
		// Exponentially weighted estimate of how far past d a sleep ends.
		over := time.Since(t0) - d
		p.oversleep += (over - p.oversleep) / 8
		if p.oversleep < 0 {
			p.oversleep = 0
		}
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}
