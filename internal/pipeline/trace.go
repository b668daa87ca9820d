package pipeline

// Span wiring: the tracer a run records into, and the mine stage's span
// set. The perturb and emit stages record their spans inline (pipeline.go);
// the mine stage's set is assembled here because one publication point
// closes three spans at once — the root window, the accumulated source
// time, and the ingest+mine interval — with the attributes the trace viewer
// keys on.

import (
	"time"

	"repro/internal/trace"
)

// spanTracer returns the tracer a run records its spans into: cfg.Trace
// when set, else — with a registry attached — a ring-less tracer feeding
// cfg.Metrics, so every duration is timed once by a span either way. nil
// (no span is timed) when neither is set.
func (cfg Config) spanTracer() *trace.Tracer {
	if cfg.Trace == nil && cfg.Metrics != nil {
		return trace.New(cfg.Metrics, 0)
	}
	return cfg.Trace
}

// finishMineSpans closes the mine stage's spans for one publication point
// and returns the window's trace, ready to ride the channel to the perturb
// stage. A nil tw (tracing off) returns nil. pos is the stream position —
// the window id and the trace track — and itemsets the mined snapshot size.
// The source span shares the mine span's start: ingest and mining interleave
// record by record, so the source span represents the slice of the
// ingest+mine interval spent inside the RecordSource.
func (r *runState) finishMineSpans(tw *trace.Window, windowStart time.Time,
	srcDur time.Duration, records int64, pos, itemsets int) *trace.Window {
	if tw == nil {
		return nil
	}
	mineDur := time.Since(windowStart)
	tw.SetID(uint64(pos))
	tw.Attr(trace.AttrWindow, int64(pos))
	tw.Attr(trace.AttrRecords, records)
	if bad := r.badCount(); bad > 0 {
		tw.Attr(trace.AttrBadRecords, int64(bad))
	}
	tw.Add(trace.KindSource, windowStart, srcDur).Attr(trace.AttrRecords, records)
	tw.Add(trace.KindMine, windowStart, mineDur).Attr(trace.AttrItemsets, int64(itemsets))
	return tw
}
