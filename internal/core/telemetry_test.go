package core

import (
	"fmt"
	"testing"

	"repro/internal/fec"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// referencePosture is the §V-C window posture computed the straightforward
// way: every FEC member's sanitized support looked up in the published
// (sorted) output by key. recordPosture walks the unsorted items in lockstep
// with the members instead; the two must agree exactly.
func referencePosture(classes []fec.Class, out *Output, k float64) (windowPosture, bool) {
	var pairs []metrics.Pair
	var sumPred, sumSq float64
	n := 0
	for _, class := range classes {
		for _, member := range class.Members {
			san, ok := out.Support(member)
			if !ok {
				continue
			}
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
	if n == 0 {
		return windowPosture{}, false
	}
	return windowPosture{
		pred: sumPred / float64(n),
		prig: 2 * (sumSq / float64(n)) / (k * k),
		ropp: metrics.ROPP(pairs),
		rrpp: metrics.RRPP(pairs, rrppK),
	}, true
}

// TestTelemetryPostureMatchesReference publishes a mined sequence twice
// over (past the rolling window's wrap) at workers 1 and 8 and checks,
// window by window, that the four posture gauges read exactly the rolling
// means of the Output.Support-based reference.
func TestTelemetryPostureMatchesReference(t *testing.T) {
	seq := minedSequence(t)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			pub := newTestPublisher(t, Hybrid{Lambda: 0.4})
			pub.SetWorkers(workers)
			pub.SetMetrics(reg)
			gauges := map[string]*telemetry.Gauge{}
			for _, name := range []string{MetricAvgPred, MetricAvgPrig, MetricROPP, MetricRRPP} {
				gauges[name] = reg.Gauge(name, "", nil)
			}
			// The reference ring mirrors the publisher's slot order, so the
			// rolling sums add in the same order and compare exactly.
			var roll [privacyRollWindows]windowPosture
			windows := 0
			for i := 0; i < 2*len(seq); i++ {
				res := seq[i%len(seq)]
				out, err := pub.Publish(res, 150)
				if err != nil {
					t.Fatal(err)
				}
				p, ok := referencePosture(fec.Partition(res), out, float64(pub.params.VulnSupport))
				if !ok {
					continue
				}
				roll[windows%privacyRollWindows] = p
				windows++
				var sum windowPosture
				for _, r := range roll[:min(windows, privacyRollWindows)] {
					sum.pred += r.pred
					sum.prig += r.prig
					sum.ropp += r.ropp
					sum.rrpp += r.rrpp
				}
				span := float64(min(windows, privacyRollWindows))
				for name, want := range map[string]float64{
					MetricAvgPred: sum.pred / span, MetricAvgPrig: sum.prig / span,
					MetricROPP: sum.ropp / span, MetricRRPP: sum.rrpp / span,
				} {
					if got := gauges[name].Value(); got != want {
						t.Fatalf("window %d: %s = %v, reference %v", i, name, got, want)
					}
				}
			}
		})
	}
}
