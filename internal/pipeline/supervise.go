package pipeline

// This file is the stage-supervision layer of the streaming pipeline:
// first-error-wins failure recording, panic capture around user-supplied
// callbacks, bounded exponential-backoff retries for transient faults, and
// the per-window watchdog. The runState is the supervision tree of one
// RunContext call; the stage loops themselves live in pipeline.go.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/trace"
)

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string   { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// Transient marks err as a transient fault: the supervised pipeline retries
// the failed operation (an emit or a source read) with exponential backoff
// instead of aborting the run. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable — wrapped by
// Transient, or carrying its own `Transient() bool` method (as the
// faultinject package's errors do).
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// panicError is a recovered panic from a user-supplied callback. It is
// transient: a sink that panicked on one delivery may well accept the
// idempotent re-delivery, and the retry budget bounds the optimism.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string   { return fmt.Sprintf("recovered panic: %v", e.val) }
func (e *panicError) Transient() bool { return true }

// safeCall runs f, converting a panic into a *panicError.
func safeCall(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &panicError{val: v, stack: debug.Stack()}
		}
	}()
	return f()
}

// maxQuarantine bounds the bad records kept in the Report; beyond it only
// the count grows.
const maxQuarantine = 16

// Report summarizes one RunContext call for the operator: how much of the
// stream was consumed, what was published, and what the supervision layer
// absorbed along the way. It is valid (best-effort) even when the run
// returns an error, so an interrupted run can print a partial summary.
type Report struct {
	// Records is the number of well-formed records consumed.
	Records int
	// BadRecords is the number of malformed records skipped.
	BadRecords int
	// Published is the number of windows delivered to the emit callback.
	Published int
	// Retries is the number of retry attempts performed after transient
	// emit/source failures.
	Retries int
	// PanicsRecovered is the number of panics converted to errors.
	PanicsRecovered int
	// Checkpoints is the number of crash-safe snapshots written.
	Checkpoints int
	// Quarantined holds the first few skipped bad records, with line
	// numbers, for the audit trail.
	Quarantined []BadRecord
}

// runState supervises one RunContext call. All stage goroutines share it;
// every mutation is guarded by mu, and the derived context carries the
// cancel signal to every blocking channel operation.
type runState struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	// Durability plumbing (set once in RunContext, before the stages
	// start): the checkpoint sink, the snapshot interval in published
	// windows, and the snapshot this run resumes from (nil for a fresh
	// run).
	ckpts     CheckpointSink
	ckptEvery int
	resume    *checkpoint.Snapshot

	// Delta-checkpoint scheduling (mine stage only, single-goroutine):
	// fullEvery is the compaction interval (1 = every generation full),
	// ckptSeq counts generations this run has scheduled, lastCkptRecords is
	// the previous generation's cut (the next delta's parent), and appended
	// buffers the records pushed into the window since then when
	// trackAppend is on.
	fullEvery       int
	ckptSeq         uint64
	lastCkptRecords uint64
	trackAppend     bool
	appended        []itemset.Itemset

	// Observability: the registered instrument set (nil without a
	// Config.Metrics registry; every recording method is nil-safe), the
	// tracer receiving per-window spans (Config.spanTracer; nil disables
	// tracing, and every trace method is nil-safe too), and when the
	// resume restore began and how long it took (the resume span).
	metrics     *pipeMetrics
	tracer      *trace.Tracer
	resumeStart time.Time
	resumeDur   time.Duration

	// results is the window-buffer freelist between the perturb and mine
	// stages: once a window's sanitized output is assembled, its
	// *mining.Result — no longer referenced by anything downstream — flows
	// back so the miner snapshots the next window into the same storage.
	// Both ends are non-blocking sends/receives: an empty pool means mine
	// allocates fresh, a full pool drops the buffer. Closed-only runs skip
	// it (the closure filter derives fresh results regardless).
	results chan *mining.Result

	mu     sync.Mutex
	err    error
	report Report
}

func newRunState(ctx context.Context, cfg Config) *runState {
	rctx, cancel := context.WithCancel(ctx)
	buffer := cfg.Buffer
	if buffer == 0 {
		buffer = 4
	}
	return &runState{cfg: cfg, ctx: rctx, cancel: cancel,
		metrics: newPipeMetrics(cfg.Metrics), tracer: cfg.spanTracer(),
		// Capacity covers every in-flight window (both channels plus the
		// stages' hands) so steady state recycles rather than drops.
		results: make(chan *mining.Result, 2*buffer+4)}
}

// fail records err as the run's failure — the first caller wins, every
// later error is dropped — and cancels the run so all stages unwind.
func (r *runState) fail(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cancel()
}

// firstErr returns the recorded failure, or the context error when the run
// was canceled from outside before any stage failed.
func (r *runState) firstErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	return r.ctx.Err()
}

// snapshot copies the report under the lock.
func (r *runState) snapshot() *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := r.report
	rep.Quarantined = append([]BadRecord(nil), r.report.Quarantined...)
	return &rep
}

// The add* methods write the Report and the telemetry counters at the same
// call sites, so within one run both count the same events. The one
// difference is a resumed run's starting point: the Report continues the
// snapshot's counts (seedCounts), while a counter counts only what the run
// reads, so a registry shared across restarts never adds a snapshot's
// prefix again.

func (r *runState) addRecord() {
	r.mu.Lock()
	r.report.Records++
	r.mu.Unlock()
	r.metrics.addRecord()
}

// seedCounts continues a resumed run's Report from its snapshot, so the
// Report and the bad-record budget span the whole stream.
func (r *runState) seedCounts(s *checkpoint.Snapshot) {
	r.mu.Lock()
	r.report.Records, r.report.BadRecords = int(s.Records), int(s.BadRecords)
	r.mu.Unlock()
}

func (r *runState) addPublished() { r.mu.Lock(); r.report.Published++; r.mu.Unlock() }

func (r *runState) addCheckpoint() { r.mu.Lock(); r.report.Checkpoints++; r.mu.Unlock() }

// addRetry counts one retry attempt; op is "source" or "emit" and selects
// the labeled telemetry series (the Report pools both).
func (r *runState) addRetry(op string) {
	r.mu.Lock()
	r.report.Retries++
	r.mu.Unlock()
	r.metrics.addRetry(op)
}

func (r *runState) addPanic() {
	r.mu.Lock()
	r.report.PanicsRecovered++
	r.mu.Unlock()
	r.metrics.addPanic()
}

// recordBad counts one malformed record against the budget and quarantines
// it. It reports false when the budget is exhausted (MaxBadRecords == 0
// fails on the first bad record; < 0 is unlimited).
func (r *runState) recordBad(b BadRecord) (ok bool) {
	r.metrics.addBadRecord()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.report.BadRecords++
	if len(r.report.Quarantined) < maxQuarantine {
		r.report.Quarantined = append(r.report.Quarantined, b)
	}
	return r.cfg.MaxBadRecords < 0 || r.report.BadRecords <= r.cfg.MaxBadRecords
}

func (r *runState) badCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.report.BadRecords
}

// recoverStage is the top-level safety net of a stage goroutine: a panic
// escaping the stage loop (i.e. from pipeline internals, not from a
// user callback already wrapped by safeCall) is converted into a fatal run
// error instead of crashing the process.
func (r *runState) recoverStage(stage string) {
	if v := recover(); v != nil {
		r.addPanic()
		r.fail(fmt.Errorf("pipeline: %s stage panicked: %v\n%s", stage, v, debug.Stack()))
	}
}

// Retry/backoff policy defaults (see Config.EmitBackoff).
const (
	defaultBackoff = 5 * time.Millisecond
	maxBackoff     = time.Second
)

// withRetries runs op (already panic-safe via safeCall) and retries
// transient failures — including recovered panics — with exponential
// backoff, up to cfg.EmitRetries retry attempts. Backoff sleeps abort
// early when the run is canceled. Non-transient errors and budget
// exhaustion return the last error. When tw is non-nil, every failed
// attempt is recorded as a retry span on the window's trace (nested under
// the emit span by time containment), numbered by its attempt.
func (r *runState) withRetries(what string, tw *trace.Window, op func() error) error {
	backoff := r.cfg.EmitBackoff
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	for attempt := 0; ; attempt++ {
		var a0 time.Time
		if tw != nil {
			a0 = time.Now()
		}
		err := safeCall(op)
		if err == nil {
			return nil
		}
		if tw != nil {
			tw.Add(trace.KindRetry, a0, time.Since(a0)).Attr(trace.AttrAttempt, int64(attempt+1))
		}
		var pe *panicError
		if errors.As(err, &pe) {
			r.addPanic()
		}
		if !IsTransient(err) {
			return fmt.Errorf("pipeline: %s: %w", what, err)
		}
		if attempt >= r.cfg.EmitRetries {
			return fmt.Errorf("pipeline: %s failed after %d retries: %w", what, attempt, err)
		}
		r.addRetry("emit")
		select {
		case <-time.After(backoff):
		case <-r.ctx.Done():
			return r.ctx.Err()
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// watchdog bounds one window's processing in a stage: if f has not returned
// within cfg.WindowTimeout, the run fails (and is canceled) with a timeout
// error naming the stage, while f itself is left to unwind. A zero timeout
// disables the watchdog. Note the budget covers the whole per-window
// handling of the stage — for the emit stage that includes retry backoff,
// so WindowTimeout must exceed the worst-case retry schedule.
func (r *runState) watchdog(stage string, position int, f func() error) error {
	if r.cfg.WindowTimeout <= 0 {
		return f()
	}
	tm := time.AfterFunc(r.cfg.WindowTimeout, func() {
		r.metrics.addWatchdogTrip()
		r.fail(fmt.Errorf("pipeline: %s of window at position %d exceeded the %v watchdog",
			stage, position, r.cfg.WindowTimeout))
	})
	defer tm.Stop()
	return f()
}

// sendOrDone delivers v on ch unless the run is canceled first.
func sendOrDone[T any](r *runState, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	case <-r.ctx.Done():
		return false
	}
}
