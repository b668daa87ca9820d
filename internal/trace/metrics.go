package trace

// Telemetry bridge: span durations observed into the telemetry registry.
// The span histograms are the service's only duration timer — every tracer
// with a registry attached feeds them, ring or no ring — and they
// cross-reference the per-window view (/debug/trace/events): an operator
// who sees a fat butterfly_trace_span_seconds bucket pulls the trace and
// finds the exact windows via the slowest-window exemplars. Observation
// happens once per window at Commit, off the span hot path, and is
// observation-only like everything else here.

import (
	"repro/internal/telemetry"
)

// Trace metric names (see OBSERVABILITY.md for the full reference).
const (
	// MetricSpanSeconds is a histogram family labeled span=<kind> recording
	// every committed span's duration, including the root (span="window").
	MetricSpanSeconds = "butterfly_trace_span_seconds"
	// MetricSlowestWindow is a gauge holding the slowest root-span duration
	// committed so far by any tracer sharing the registry.
	MetricSlowestWindow = "butterfly_trace_slowest_window_seconds"
)

// traceMetrics holds the registered instrument set: one histogram per span
// kind (pre-registered, so the commit path does no label lookups) and the
// slowest-window gauge.
type traceMetrics struct {
	spans   [numKinds]*telemetry.Histogram
	slowest *telemetry.Gauge
}

// newTraceMetrics registers the tracer instruments on reg; nil reg
// returns nil (no mirroring). Registration is idempotent across tracers
// sharing a registry, and so is the slowest-window gauge: it holds the
// maximum over all of them.
func newTraceMetrics(reg *telemetry.Registry) *traceMetrics {
	if reg == nil {
		return nil
	}
	m := &traceMetrics{
		slowest: reg.Gauge(MetricSlowestWindow,
			"Slowest committed window's root-span duration across the registry's tracers (the top exemplar).", nil),
	}
	for _, k := range Kinds() {
		m.spans[k] = reg.Histogram(MetricSpanSeconds,
			"Committed span durations, by span kind (the one timer behind every stage, checkpoint, ingest and WAL duration).",
			nil, telemetry.Labels{"span": k.String()})
	}
	return m
}

// observe records one committed window into the registry (no-op without
// one). Called from Commit only.
func (t *Tracer) observe(d *windowData) {
	m := t.metrics
	if m == nil {
		return
	}
	if int(d.kind) < numKinds {
		m.spans[d.kind].Observe(float64(d.dur) / 1e9)
	}
	for i := int32(0); i < d.nspans; i++ {
		sp := &d.spans[i]
		if int(sp.kind) < numKinds {
			m.spans[sp.kind].Observe(float64(sp.dur) / 1e9)
		}
	}
	// The gauge tracks the max window-root duration (ingest roots share the
	// ring but not this gauge) across every tracer on the registry.
	if d.kind == KindWindow {
		m.slowest.SetMax(float64(d.dur) / 1e9)
	}
}
