package pipeline

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/itemset"
)

// RecordSource delivers stream records one at a time — the ingest side of a
// supervised run. Unlike a materialized []itemset.Itemset, a RecordSource
// can be unbounded, arrive slowly, and fail.
//
// Next returns the next record. io.EOF ends the stream cleanly (the
// pipeline publishes the final window and returns). A *data.ParseError
// reports one malformed record that the source has already skipped past;
// the pipeline counts it against the bad-record budget (Config
// .MaxBadRecords) and continues. An error marked transient (see Transient /
// IsTransient) is retried with exponential backoff up to Config.EmitRetries
// attempts, on the assumption that the failed call consumed no record. Any
// other error aborts the run.
type RecordSource interface {
	Next() (itemset.Itemset, error)
}

// sliceSource adapts an in-memory record slice.
type sliceSource struct {
	records []itemset.Itemset
	next    int
}

// SliceSource returns a RecordSource over a fully-materialized record
// slice, the adapter behind the legacy Run entry point.
func SliceSource(records []itemset.Itemset) RecordSource {
	return &sliceSource{records: records}
}

func (s *sliceSource) Next() (itemset.Itemset, error) {
	if s.next >= len(s.records) {
		return itemset.Itemset{}, io.EOF
	}
	rec := s.records[s.next]
	s.next++
	return rec, nil
}

// generatorSource adapts a synthetic generator, bounded to n records.
type generatorSource struct {
	gen  *data.Generator
	left int
}

// GeneratorSource returns a RecordSource delivering the next n records of a
// synthetic generator one at a time, without materializing the stream.
func GeneratorSource(g *data.Generator, n int) RecordSource {
	return &generatorSource{gen: g, left: n}
}

func (s *generatorSource) Next() (itemset.Itemset, error) {
	if s.left <= 0 {
		return itemset.Itemset{}, io.EOF
	}
	s.left--
	return s.gen.Next(), nil
}

// ReaderSource streams transactions from r incrementally in the
// one-transaction-per-line format, interning tokens into vocab (nil
// allocates a fresh vocabulary) — no buffering of the whole input.
// Malformed lines surface as *data.ParseError, which the pipeline treats as
// skippable bad records under its budget.
func ReaderSource(r io.Reader, vocab *data.Vocabulary) RecordSource {
	return data.NewTransactionReader(r, vocab)
}

// DrainSource wraps a RecordSource with a stop switch for graceful
// shutdown: after Stop, Next reports io.EOF, so the pipeline finishes the
// windows already in flight, publishes the final window of the truncated
// stream, and returns cleanly — the SIGINT drain path of cmd/butterfly.
// Stop is safe to call from any goroutine, any number of times.
type DrainSource struct {
	src     RecordSource
	stopped atomic.Bool
}

// NewDrainSource wraps src.
func NewDrainSource(src RecordSource) *DrainSource {
	return &DrainSource{src: src}
}

// Stop makes all subsequent Next calls report end-of-stream.
func (d *DrainSource) Stop() { d.stopped.Store(true) }

// Stopped reports whether the source was stopped before its natural end.
func (d *DrainSource) Stopped() bool { return d.stopped.Load() }

// Next implements RecordSource.
func (d *DrainSource) Next() (itemset.Itemset, error) {
	if d.stopped.Load() {
		return itemset.Itemset{}, io.EOF
	}
	return d.src.Next()
}

// FastForward advances src past the first records well-formed records — the
// one prefix skip of checkpoint resume, for a source that re-presents the
// stream from its first record (a re-opened file, a client re-sending from
// line 1) while the resumed run starts at the snapshot (Config.Resume).
// Malformed records (*data.ParseError) encountered while skipping are
// discarded and counted in skippedBad, not toward records; the resumed run
// counts them through the snapshot's BadRecords. It returns an error if the
// source ends or fails before reaching the position: a source that cannot
// replay its original prefix cannot resume deterministically.
func FastForward(src RecordSource, records int) (skippedBad int, err error) {
	for consumed := 0; consumed < records; {
		_, err := src.Next()
		switch {
		case err == nil:
			consumed++
		case errors.As(err, new(*data.ParseError)):
			skippedBad++
		case errors.Is(err, io.EOF):
			return skippedBad, fmt.Errorf(
				"pipeline: source ended after %d records, before the fast-forward position %d", consumed, records)
		default:
			return skippedBad, fmt.Errorf("pipeline: fast-forwarding to record %d: %w", records, err)
		}
	}
	return skippedBad, nil
}

// SkipSource returns src with its first records well-formed records dropped
// by FastForward on the first Next, inside the run — where cancellation,
// pause gates and the drain switch already apply. A failed skip is final:
// the records it consumed are gone, so every later Next repeats its error
// rather than deliver a record from the wrong position.
func SkipSource(src RecordSource, records int) RecordSource {
	return &skipSource{src: src, left: records}
}

type skipSource struct {
	src  RecordSource
	left int
	err  error
}

func (s *skipSource) Next() (itemset.Itemset, error) {
	if n := s.left; n > 0 {
		// Spent before it runs: a source panic mid-skip, which the pipeline
		// retries, fails the run instead of resuming at a wrong position.
		s.left, s.err = 0, errors.New("pipeline: fast-forward interrupted")
		_, s.err = FastForward(s.src, n)
	}
	if s.err != nil {
		return itemset.Itemset{}, s.err
	}
	return s.src.Next()
}

// BadRecord is one malformed input record skipped under the bad-record
// budget, quarantined in the run Report for the operator.
type BadRecord struct {
	// Line is the 1-based input line number, when the source knows it.
	Line int
	// Token is the offending token, clipped for display.
	Token string
	// Err is the parse failure.
	Err error
}

func (b BadRecord) String() string {
	return fmt.Sprintf("line %d: token %q: %v", b.Line, b.Token, b.Err)
}
