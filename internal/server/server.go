// Package server hosts many independent Butterfly sanitization streams in
// one long-running process: a sharded stream registry, an HTTP ingest path
// with backpressure and admission control, per-stream fault budgets with a
// circuit breaker that quarantines a misbehaving stream instead of killing
// the process, and a graceful drain that checkpoints every stream
// concurrently under a deadline.
//
// Isolation contract: each hosted stream runs the exact supervised
// pipeline a standalone cmd/butterfly process would run — same miner, same
// publisher, same checkpoint format, its own seed and vocabulary — so the
// windows it publishes are byte-identical to an independent single-stream
// run over the same records (the differential suite pins this, fault
// injection and all). Neighbors share nothing but the process: a stream
// that panics, stalls, or exhausts its fault budget is restarted from its
// own checkpoint or quarantined, and the streams around it never notice.
//
// Restart determinism: an in-process restart resumes from the stream's
// newest checkpoint plus a replay of the lines consumed past it — one path
// for every stream. With a data dir the checkpoint is the newest readable
// generation on disk and the replay comes from the stream's ingest WAL
// (truncated as full checkpoints advance); without one the checkpoint is
// the snapshot held in memory from the newest published window and the
// replay is the retained tail of lines consumed since it (pruned at every
// save, capped at retainLimit lines). If the WAL tail is not contiguous
// with the checkpoint, a memory-only tail outgrew its cap before a
// snapshot covered it, or a stream parked at boot has no log to replay,
// the stream is quarantined rather than restarted wrong: no replay, no
// resume. A run owns its queue source and checkpoint store until the
// supervisor joins it (Pipeline.Wait); only then are the consumption
// ledgers complete for the restart, and the store free to reuse or
// reclaim.
//
// Durability of acceptance: with a data dir, every 2xx ingest response
// means the accepted lines are fsynced to the stream's WAL (and any new
// vocabulary tokens to its journal) before they are visible to the
// pipeline, the stream manifest records every admitted stream atomically,
// and Recover rebuilds the whole registry — checkpoints, WAL tails,
// quarantine states — after a kill -9 with nothing accepted lost. Recover
// is the only way a stream continues from state an earlier process left:
// a create always starts a new stream.
package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Options configures a Server. The zero value is usable: every limit has a
// default, durability is off without a DataDir, and logging and telemetry
// are off without a Logger/Registry.
type Options struct {
	// DataDir, when non-empty, makes acceptance durable: each stream gets
	// crash-safe checkpoints, an ingest WAL, and a token journal under
	// DataDir/streams/<stream-id>/ (each directory guarded by an exclusive
	// lease so two servers cannot interleave writes), and the server keeps
	// a stream manifest at DataDir/manifest.json that Recover uses to
	// rebuild the registry after a crash.
	DataDir string
	// WALSegmentBytes caps the size of each stream's ingest WAL segments (0:
	// the wal package default). Segments normally end at full checkpoint
	// anchors; the cap ends those of streams whose anchors lie far apart.
	WALSegmentBytes int64
	// MaxStreams caps concurrently hosted streams (default 1024); create
	// beyond it is refused with 503.
	MaxStreams int
	// MaxInflightBytes caps the approximate memory queued across every
	// stream's ingest queue (default 256 MiB); ingest beyond it is refused
	// with 503 until the pipelines drain.
	MaxInflightBytes int64
	// QueueDepth is the default per-stream ingest queue depth in records
	// (default 1024); a full queue refuses ingest with 429.
	QueueDepth int
	// History is the default number of published windows retained per
	// stream for GET /windows (default 64).
	History int
	// BreakerFailures is the circuit breaker threshold K: consecutive
	// failed runs without a published window before a stream is
	// quarantined instead of restarted (default 3).
	BreakerFailures int
	// RestartBackoff is the initial delay before an in-process restart,
	// doubling per consecutive failure (default 25ms).
	RestartBackoff time.Duration
	// CheckpointFullEvery is the default full-snapshot compaction interval
	// for streams that leave checkpoint_full_every unset: every Nth
	// checkpoint generation is a full snapshot, the generations between are
	// delta frames. Default 1 — every generation full, the v1 behavior.
	CheckpointFullEvery int
	// Shards is the registry shard count (default 16).
	Shards int
	// DrainTimeout is the default graceful-drain deadline used by callers
	// that pass Shutdown a background context (default 30s).
	DrainTimeout time.Duration
	// Logger receives structured lifecycle and warning logs (nil = off).
	Logger *slog.Logger
	// Registry receives server and pipeline telemetry (nil = off).
	Registry *telemetry.Registry
	// Owner names this process in checkpoint lease files (default
	// "butterflyd").
	Owner string

	// WrapSource and WrapSink, when non-nil, wrap each stream's record
	// source / emit sink on every (re)start — the chaos suite's injection
	// seam. Both must preserve the wrapped value's semantics when passing
	// through.
	WrapSource func(id string, src pipeline.RecordSource) pipeline.RecordSource
	WrapSink   func(id string, emit func(pipeline.Window) error) func(pipeline.Window) error

	// hookStore / hookWAL, when non-nil, observe each stream's checkpoint
	// store and WAL just after they are opened (create or boot adoption) —
	// the crash-injection seam the recovery differential suite uses to
	// install CrashHooks. Test-only, same package.
	hookStore func(id string, store *checkpoint.Store)
	hookWAL   func(id string, lg *wal.Log)
}

func (o *Options) setDefaults() {
	if o.MaxStreams <= 0 {
		o.MaxStreams = 1024
	}
	if o.MaxInflightBytes <= 0 {
		o.MaxInflightBytes = 256 << 20
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.History <= 0 {
		o.History = 64
	}
	if o.BreakerFailures <= 0 {
		o.BreakerFailures = 3
	}
	if o.RestartBackoff <= 0 {
		o.RestartBackoff = 25 * time.Millisecond
	}
	if o.CheckpointFullEvery <= 0 {
		o.CheckpointFullEvery = 1
	}
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.Owner == "" {
		o.Owner = "butterflyd"
	}
}

// Server is the multi-stream sanitization host.
type Server struct {
	opts    Options
	log     *slog.Logger
	metrics *serverMetrics

	shards   []*shard
	nstreams atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool

	// Readiness (see health.go): New starts ready; BeginBoot flips the
	// server not-ready until Recover completes, so a booting daemon can
	// serve /healthz and refuse /v1 traffic with 503 instead of racing
	// half-adopted streams.
	ready   atomic.Bool
	started time.Time

	// lastRecovery holds the most recent Recover report for /healthz
	// (zero value before any recovery).
	recoverMu    sync.Mutex
	lastRecovery RecoverReport

	// manifest mirrors DataDir/manifest.json (see manifest.go).
	manifestMu sync.Mutex
	manifest   map[string]manifestEntry

	ctx    context.Context // parent of every stream's run context
	cancel context.CancelFunc
	wg     sync.WaitGroup // live supervisor goroutines
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*stream
	// creating holds the ids a Create has claimed but not yet registered.
	// A second create of a claimed id is refused before it registers
	// anything, so every {stream=id} series meanwhile is the claimant's.
	creating map[string]bool
}

// claim reserves id for a Create, unless a stream or another create holds
// it.
func (sh *shard) claim(id string) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m[id] != nil || sh.creating[id] {
		return false
	}
	sh.creating[id] = true
	return true
}

// settle ends id's claim, registering st under it unless st is nil.
func (sh *shard) settle(id string, st *stream) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.creating, id)
	if st != nil {
		sh.m[id] = st
	}
}

// New builds a Server. It never binds a socket itself — install the
// control plane on a mux with Routes and serve that however fits.
func New(opts Options) *Server {
	opts.setDefaults()
	s := &Server{
		opts:    opts,
		log:     opts.Logger,
		metrics: newServerMetrics(opts.Registry),
		started: time.Now(),
	}
	s.ready.Store(true)
	if opts.Registry != nil {
		// The hosted pipelines share the registry; registering here keeps
		// /metrics complete before the first stream runs.
		pipeline.RegisterMetrics(opts.Registry)
	}
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{m: map[string]*stream{}, creating: map[string]bool{}}
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

func (s *Server) shard(id string) *shard {
	h := fnv.New32a()
	io.WriteString(h, id)
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

func (s *Server) get(id string) *stream {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.m[id]
}

// all snapshots the registry (sorted by id, for stable listings and drain
// logs).
func (s *Server) all() []*stream {
	var out []*stream
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, st := range sh.m {
			out = append(out, st)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// StreamCount returns the number of hosted streams (all states).
func (s *Server) StreamCount() int { return int(s.nstreams.Load()) }

// addInflight adjusts the server-wide queued-bytes accounting.
func (s *Server) addInflight(d int64) {
	s.metrics.setInflight(s.inflight.Add(d))
}

// Sentinel errors the HTTP layer maps onto status codes.
var (
	errDraining       = errors.New("server is draining")
	errTooManyStreams = errors.New("max-streams cap reached")
	errStreamExists   = errors.New("stream already exists")
	errStreamNotFound = errors.New("stream not found")
)

// StreamConfig is the create-stream request: the standalone pipeline's
// knobs plus the stream's service envelope (queue depth, history,
// checkpoint cadence, tracing). A create always starts a new stream; a
// stream continues from its own checkpoint only through an in-process
// restart or boot Recover.
type StreamConfig struct {
	ID string `json:"id"`

	// Pipeline configuration (see cmd/butterfly's flags of the same names).
	Window       int     `json:"window"`
	Epsilon      float64 `json:"epsilon"`
	Delta        float64 `json:"delta"`
	MinSupport   int     `json:"min_support"`
	VulnSupport  int     `json:"vuln_support"`
	Scheme       string  `json:"scheme"`
	Lambda       float64 `json:"lambda"`
	Gamma        int     `json:"gamma"`
	Seed         uint64  `json:"seed"`
	PublishEvery int     `json:"publish_every"`
	Workers      int     `json:"workers"`
	ClosedOnly   bool    `json:"closed_only"`
	// Raw (true supports, no perturbation) is refused: GET /windows would
	// serve a raw stream's true supports to any client. The field stays so
	// an older manifest entry carrying it is recognized and parked at boot;
	// the audit tool for raw output is cmd/butterfly -raw.
	Raw bool `json:"raw"`

	// Fault budgets (per-tenant): malformed records tolerated before the
	// run fails (0 fails on the first, -1 is unlimited), and transient
	// emit/source retries per window.
	MaxBadRecords int `json:"max_bad_records"`
	EmitRetries   int `json:"emit_retries"`

	// Service envelope. Zero values take the server-wide defaults.
	QueueDepth      int `json:"queue_depth"`
	History         int `json:"history"`
	CheckpointEvery int `json:"checkpoint_every"`
	CheckpointKeep  int `json:"checkpoint_keep"`
	// CheckpointFullEvery is the full-snapshot compaction interval: every
	// Nth checkpoint generation is a full snapshot, the generations between
	// are delta frames (pipeline.Config.CheckpointFullEvery). 0 takes the
	// server-wide default; 1 makes every generation full (the v1 behavior).
	CheckpointFullEvery int `json:"checkpoint_full_every"`
	// TraceWindows, when > 0, keeps a flight-recorder ring of that many
	// windows for the stream, served by GET /v1/streams/{id}/trace; 0 keeps
	// none (the trace endpoint answers 404). Either way, with a server
	// registry the stream's spans feed butterfly_trace_span_seconds.
	TraceWindows int `json:"trace_windows"`
}

// streamIDPattern admits ids that are safe as checkpoint directory names
// and URL path segments.
var streamIDPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

func validateStreamID(id string) error {
	if !streamIDPattern.MatchString(id) {
		return fmt.Errorf("stream id %q: want 1-64 chars of [A-Za-z0-9._-], starting alphanumeric", id)
	}
	return nil
}

// validate checks the service envelope; pipeline knobs are validated by
// pipeline.New when the config is assembled.
func (c StreamConfig) validate() error {
	if err := validateStreamID(c.ID); err != nil {
		return err
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("negative queue depth %d", c.QueueDepth)
	}
	if c.History < 0 {
		return fmt.Errorf("negative history %d", c.History)
	}
	if c.TraceWindows < 0 {
		return fmt.Errorf("negative trace windows %d", c.TraceWindows)
	}
	// Disk-only knobs: a memory-only stream ignores them, but a negative
	// value is refused either way.
	if c.CheckpointKeep < 0 {
		return fmt.Errorf("negative checkpoint retention %d", c.CheckpointKeep)
	}
	if c.CheckpointFullEvery < 0 {
		return fmt.Errorf("negative full-snapshot interval %d", c.CheckpointFullEvery)
	}
	if c.Raw {
		return errRawRefused
	}
	return nil
}

// errRawRefused rejects raw streams at create and parks them at adoption.
var errRawRefused = errors.New("raw output publishes true supports and is not served; use cmd/butterfly -raw for audits")

// StreamStatus is the control plane's view of one stream.
type StreamStatus struct {
	ID                  string `json:"id"`
	State               string `json:"state"`
	LastError           string `json:"last_error,omitempty"`
	RecordsAccepted     uint64 `json:"records_accepted"`
	RecordsConsumed     uint64 `json:"records_consumed"`
	BadRecords          uint64 `json:"bad_records"`
	QueueLen            int    `json:"queue_len"`
	QueueCap            int    `json:"queue_cap"`
	WindowsRetained     int    `json:"windows_retained"`
	Restarts            int    `json:"restarts"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	CheckpointRecords   uint64 `json:"checkpoint_records"`
	Workers             int    `json:"workers"`
	Scheme              string `json:"scheme"`
	// AcceptedLines is the cumulative accepted-line count (good + bad) — the
	// coordinate the ?offset= ingest dedup protocol speaks.
	AcceptedLines uint64 `json:"accepted_lines"`
	// Durable reports whether acceptance is WAL-backed (server has a data
	// dir): a 2xx ingest response means the lines survive a kill -9.
	Durable bool `json:"durable"`
	// WALSegments is the stream's current ingest-WAL segment count (durable
	// mode only).
	WALSegments int `json:"wal_segments,omitempty"`
	// LastCheckpointAge is seconds since the stream's last persisted
	// checkpoint generation (0 before the first save) — the staleness the
	// butterfly_checkpoint_last_save_age_seconds gauge reports.
	LastCheckpointAge float64 `json:"last_checkpoint_age,omitempty"`
}

// Create admits and starts a stream. The returned status reflects the
// stream just after start.
func (s *Server) Create(cfg StreamConfig) (StreamStatus, error) {
	if s.draining.Load() {
		return StreamStatus{}, errDraining
	}
	if err := cfg.validate(); err != nil {
		return StreamStatus{}, err
	}
	if cfg.CheckpointEvery > 0 && s.opts.DataDir == "" {
		// A memory-only stream snapshots every window: holding a snapshot
		// costs no I/O, and a sparser cadence would only grow its retained
		// tail.
		return StreamStatus{}, fmt.Errorf("stream %s: checkpoint_every requires a server data dir", cfg.ID)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = s.opts.QueueDepth
	}
	if cfg.History == 0 {
		cfg.History = s.opts.History
	}
	if cfg.CheckpointFullEvery == 0 {
		cfg.CheckpointFullEvery = s.opts.CheckpointFullEvery
	}
	scheme, err := core.SchemeByName(cfg.Scheme, cfg.Lambda, cfg.Gamma)
	if err != nil {
		return StreamStatus{}, err
	}
	sh := s.shard(cfg.ID)
	if !sh.claim(cfg.ID) {
		return StreamStatus{}, fmt.Errorf("%w: %s", errStreamExists, cfg.ID)
	}
	// Admission: reserve a slot before doing any expensive setup.
	if s.nstreams.Add(1) > int64(s.opts.MaxStreams) {
		s.nstreams.Add(-1)
		sh.settle(cfg.ID, nil)
		return StreamStatus{}, fmt.Errorf("%w (%d)", errTooManyStreams, s.opts.MaxStreams)
	}

	st, warnf := s.buildStream(cfg, scheme)
	fail := func(err error) (StreamStatus, error) {
		st.stop()
		st.closeDurable()
		st.releaseLease()
		// The claim kept every other create of the id out, so the id's
		// series are this create's own: a failed create leaves none.
		s.metrics.dropStream(cfg.ID)
		sh.settle(cfg.ID, nil)
		s.nstreams.Add(-1)
		return StreamStatus{}, err
	}

	// Validate the full pipeline config (params, window, budgets) before
	// anything touches the disk, so a rejected create leaves no directory
	// behind. A durable stream's store opens below; until then a memory
	// sink stands in for it.
	vcfg := st.pipeCfg
	if vcfg.Checkpoints == nil {
		vcfg.Checkpoints = &checkpoint.Memory{}
	}
	if _, err := pipeline.New(vcfg); err != nil {
		return fail(err)
	}

	if s.opts.DataDir != "" {
		dir := s.streamDir(cfg.ID)
		lease, err := checkpoint.AcquireLease(dir, s.opts.Owner)
		if err != nil {
			return fail(fmt.Errorf("stream %s: %w", cfg.ID, err))
		}
		st.lease = lease
		store, err := checkpoint.NewStore(dir, cfg.CheckpointKeep)
		if err != nil {
			return fail(err)
		}
		store.Logf = warnf
		store.OnSave = st.onCheckpointSave
		st.store = store
		st.pipeCfg.Checkpoints = store
		if s.opts.hookStore != nil {
			s.opts.hookStore(cfg.ID, store)
		}
		// A create starts the client's line space at zero: whatever WAL,
		// token journal or checkpoints a predecessor of the same id left in
		// the directory (a delete that could not reclaim it) belong to
		// another stream.
		if err := wipeDurable(dir, store); err != nil {
			return fail(fmt.Errorf("stream %s: clearing stale state: %w", cfg.ID, err))
		}
		if _, err := st.openDurable(dir, warnf); err != nil {
			return fail(fmt.Errorf("stream %s: %w", cfg.ID, err))
		}
	}

	// Durably register the stream before acknowledging the create: an
	// admission the manifest cannot record is refused, because a crash would
	// orphan-sweep its directory at the next boot.
	if err := s.manifestPut(cfg.ID, manifestEntry{
		Config:      cfg,
		Fingerprint: st.pipeCfg.Fingerprint(),
		State:       manifestActive,
	}); err != nil {
		return fail(err)
	}
	sh.settle(cfg.ID, st)

	s.metrics.moveState("", StateRunning)
	s.wg.Add(1)
	go s.supervise(st, nil, nil)
	s.log.Info("stream created", "stream", cfg.ID,
		"queue_depth", cfg.QueueDepth, "workers", cfg.Workers)
	return st.status(), nil
}

// buildStream constructs a stream shell — channels, metrics, run context,
// tracer, pipeline config — not yet registered or supervised. scheme may
// be nil only when adoption is about to park the stream terminally.
func (s *Server) buildStream(cfg StreamConfig, scheme core.Scheme) (*stream, func(string, ...any)) {
	st := &stream{
		id:       cfg.ID,
		cfg:      cfg,
		srv:      s,
		vocab:    data.NewVocabulary(),
		queue:    make(chan queueItem, cfg.QueueDepth),
		state:    StateRunning,
		unpaused: closedChan,
		done:     make(chan struct{}),
	}
	st.mRecords, st.mWindows = s.metrics.streamCounters(cfg.ID)
	// Pull-style per-stream gauges: read the live channel length / atomic
	// stamp at scrape time, costing the hot path nothing. They look the id
	// up at scrape time rather than close over this stream object, so they
	// read 0 until the create registers the stream.
	s.metrics.streamQueueDepth(cfg.ID, s.streamGauge(cfg.ID, func(st *stream) float64 { return float64(len(st.queue)) }))
	s.metrics.streamCheckpointAge(cfg.ID, s.streamGauge(cfg.ID, (*stream).checkpointAge))
	st.runCtx, st.stop = context.WithCancel(s.ctx)
	// The stream's tracer times its ingest requests and — as the pipeline's
	// Trace — its windows, feeding the registry's span histograms; only a
	// stream created with trace_windows keeps the flight-recorder ring.
	if cfg.TraceWindows > 0 || s.opts.Registry != nil {
		st.tracer = trace.New(s.opts.Registry, cfg.TraceWindows)
	}
	warnf := func(format string, args ...any) {
		s.log.Warn(fmt.Sprintf(format, args...), "stream", cfg.ID)
	}
	st.pipeCfg = pipeline.Config{
		WindowSize: cfg.Window,
		Params: core.Params{
			Epsilon: cfg.Epsilon, Delta: cfg.Delta,
			MinSupport: cfg.MinSupport, VulnSupport: cfg.VulnSupport,
		},
		Scheme:              scheme,
		Seed:                cfg.Seed,
		ClosedOnly:          cfg.ClosedOnly,
		Raw:                 cfg.Raw,
		PublishEvery:        cfg.PublishEvery,
		Workers:             cfg.Workers,
		MaxBadRecords:       cfg.MaxBadRecords,
		EmitRetries:         cfg.EmitRetries,
		CheckpointEvery:     cfg.CheckpointEvery,
		CheckpointFullEvery: cfg.CheckpointFullEvery,
		Metrics:             s.opts.Registry,
		Trace:               st.tracer,
	}
	if s.opts.DataDir == "" {
		// Memory-only: the stream checkpoints every window to memory, which
		// keeps only its newest full snapshot. A delta chain would save
		// nothing there, so every generation is full whatever the server
		// default says.
		st.mem = &checkpoint.Memory{OnSave: st.onCheckpointSave}
		st.pipeCfg.Checkpoints = st.mem
		st.pipeCfg.CheckpointFullEvery = 1
	}
	return st, warnf
}

// streamGauge returns a scrape-time gauge function reading read of the
// stream registered under id now, or 0 while none is.
func (s *Server) streamGauge(id string, read func(*stream) float64) func() float64 {
	return func() float64 {
		if st := s.get(id); st != nil {
			return read(st)
		}
		return 0
	}
}

// wipeDurable removes a directory's WAL segments, token journal and
// checkpoint generations (full snapshots and delta segments): a create's
// line space starts at zero, so a predecessor's durable state must not
// leak into it.
func wipeDurable(dir string, store *checkpoint.Store) error {
	segs, err := filepath.Glob(filepath.Join(dir, wal.SegmentGlob))
	if err != nil {
		return err
	}
	for _, p := range segs {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	if err := os.Remove(filepath.Join(dir, wal.TokensName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return store.Wipe()
}

// gcStream reclaims a stream's durable footprint once it can never run
// again (drained to done, or deleted): manifest entry first, directory
// second, so a crash between the two leaves an orphan directory for the
// boot sweep — never a manifest entry pointing at nothing. The entry goes
// even for a stream parked before its lease or store opened, or the next
// boot would park it again; its directory, which this process never held
// the lease on, is left to that boot's orphan sweep.
func (s *Server) gcStream(st *stream) {
	st.closeDurable()
	held := st.lease != nil
	st.releaseLease()
	s.manifestRemove(st.id)
	if !held {
		return
	}
	if err := os.RemoveAll(s.streamDir(st.id)); err != nil {
		s.log.Warn("stream gc failed", "stream", st.id, "error", err.Error())
	}
}

// supervise runs one supervision session: the pipeline run loop with
// checkpoint+replay restarts and the circuit breaker. snap/replay describe
// the starting point (see stream.buildRestart).
func (s *Server) supervise(st *stream, snap *checkpoint.Snapshot, replay []queueItem) {
	defer s.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			// The pipeline recovers its own stage panics; this guards the
			// supervision scaffolding itself so one stream's bug can never
			// take down its neighbors.
			st.setState(StateQuarantined, fmt.Errorf("supervisor panic: %v", v))
			s.metrics.addQuarantine(quarPanic)
			s.manifestSetState(st.id, manifestQuarantined, fmt.Sprintf("supervisor panic: %v", v))
			s.log.Error("supervisor panic", "stream", st.id, "panic", fmt.Sprint(v))
		}
		st.mu.Lock()
		done := st.done
		st.mu.Unlock()
		close(done)
	}()
	for {
		cfg := st.pipeCfg
		cfg.Resume = snap
		st.progress.Store(false)
		p, err := pipeline.New(cfg)
		if err != nil {
			// Create validated this exact config; reaching here means the
			// restart inputs are inconsistent — not retryable.
			st.setState(StateQuarantined, err)
			s.metrics.addQuarantine(quarConfig)
			s.manifestSetState(st.id, manifestQuarantined, err.Error())
			s.log.Error("stream config rejected on restart", "stream", st.id, "error", err.Error())
			return
		}
		runCtx, cancelRun := context.WithCancel(st.runCtx)
		var src pipeline.RecordSource = &queueSource{st: st, ctx: runCtx, replay: replay}
		if s.opts.WrapSource != nil {
			src = s.opts.WrapSource(st.id, src)
		}
		emit := st.emit
		if s.opts.WrapSink != nil {
			emit = s.opts.WrapSink(st.id, emit)
		}
		_, runErr := p.RunContext(runCtx, src, emit)
		// The run owns its queue source and checkpoint store until it is
		// joined. A failed or canceled RunContext returns while its stages
		// may still be inside a source read or a checkpoint save; once they
		// unwind, the consumption state covers every record the run
		// dequeued, and the restart loop may reuse the store or a caller
		// (Delete, gcStream) reclaim the stream's durable directory.
		cancelRun()
		p.Wait()
		if runErr == nil {
			st.setState(StateDone, nil)
			// The stream is complete: its final window and checkpoint are
			// published, nothing remains to recover. Reclaim the durable
			// footprint.
			s.gcStream(st)
			s.log.Info("stream drained", "stream", st.id)
			return
		}
		if st.runCtx.Err() != nil {
			// Deleted or server-aborted; nothing to restart — and nothing to
			// persist: an abort is the simulated crash, so the manifest must
			// keep saying whatever it said before it.
			st.setState(StateFailed, runErr)
			return
		}
		if errors.Is(runErr, pipeline.ErrShortStream) {
			// Closed before the first window ever filled — a property of
			// the input, not a fault; restarting cannot help.
			st.setState(StateFailed, runErr)
			s.manifestSetState(st.id, manifestFailed, runErr.Error())
			s.log.Warn("stream closed short", "stream", st.id, "error", runErr.Error())
			return
		}
		st.mu.Lock()
		if st.progress.Load() {
			st.consecFails = 0
		}
		st.consecFails++
		st.restarts++
		fails := st.consecFails
		st.mu.Unlock()
		s.metrics.addRestart()
		s.log.Warn("stream run failed", "stream", st.id,
			"error", runErr.Error(), "consecutive_failures", fails)
		if fails >= s.opts.BreakerFailures {
			st.setState(StateQuarantined, runErr)
			s.metrics.addQuarantine(quarBreaker)
			s.manifestSetState(st.id, manifestQuarantined, runErr.Error())
			s.log.Error("stream quarantined", "stream", st.id,
				"error", runErr.Error(), "failures", fails)
			return
		}
		var rerr error
		snap, replay, rerr = st.buildRestart()
		if rerr != nil {
			st.setState(StateQuarantined, fmt.Errorf("%v (restart impossible: %v)", runErr, rerr))
			s.metrics.addQuarantine(quarRestartImpossible)
			s.manifestSetState(st.id, manifestQuarantined,
				fmt.Sprintf("%v (restart impossible: %v)", runErr, rerr))
			s.log.Error("stream restart impossible", "stream", st.id, "error", rerr.Error())
			return
		}
		backoff := s.opts.RestartBackoff << (fails - 1)
		select {
		case <-time.After(backoff):
		case <-st.runCtx.Done():
			st.setState(StateFailed, st.runCtx.Err())
			return
		}
	}
}

// Status returns one stream's status.
func (s *Server) Status(id string) (StreamStatus, error) {
	st := s.get(id)
	if st == nil {
		return StreamStatus{}, fmt.Errorf("%w: %s", errStreamNotFound, id)
	}
	return st.status(), nil
}

// List returns every hosted stream's status, sorted by id.
func (s *Server) List() []StreamStatus {
	streams := s.all()
	out := make([]StreamStatus, 0, len(streams))
	for _, st := range streams {
		out = append(out, st.status())
	}
	return out
}

// Pause gates a running stream: ingest is refused and the source stops
// delivering; windows already inside the pipeline still complete.
func (s *Server) Pause(id string) (StreamStatus, error) {
	st := s.get(id)
	if st == nil {
		return StreamStatus{}, fmt.Errorf("%w: %s", errStreamNotFound, id)
	}
	if err := st.pause(); err != nil {
		return StreamStatus{}, err
	}
	s.log.Info("stream paused", "stream", id)
	return st.status(), nil
}

// Resume unpauses a paused stream, or resets a quarantined stream's
// breaker and restarts it from its newest checkpoint plus the lines
// consumed past it.
func (s *Server) Resume(id string) (StreamStatus, error) {
	if s.draining.Load() {
		return StreamStatus{}, errDraining
	}
	st := s.get(id)
	if st == nil {
		return StreamStatus{}, fmt.Errorf("%w: %s", errStreamNotFound, id)
	}
	switch st.currentState() {
	case StatePaused:
		st.unpause()
		s.log.Info("stream resumed", "stream", id)
		return st.status(), nil
	case StateQuarantined:
		snap, replay, err := st.buildRestart()
		if err != nil {
			return StreamStatus{}, fmt.Errorf("stream %s cannot restart: %w", id, err)
		}
		// Re-check under the lock so two concurrent resumes cannot spawn
		// two supervisors for one stream.
		st.mu.Lock()
		if st.state != StateQuarantined {
			state := st.state
			st.mu.Unlock()
			return StreamStatus{}, fmt.Errorf("stream %s is no longer quarantined (%s)", id, state)
		}
		st.state = StateRunning
		st.consecFails = 0
		st.done = make(chan struct{})
		st.mu.Unlock()
		s.metrics.moveState(StateQuarantined, StateRunning)
		s.manifestSetState(id, manifestActive, "")
		s.wg.Add(1)
		go s.supervise(st, snap, replay)
		s.log.Info("stream un-quarantined", "stream", id)
		return st.status(), nil
	default:
		return StreamStatus{}, fmt.Errorf("stream %s is %s; resume applies to %s or %s streams",
			id, st.currentState(), StatePaused, StateQuarantined)
	}
}

// CloseIngest ends a stream's input: the pipeline drains the queue,
// publishes the final window, and writes the final checkpoint.
func (s *Server) CloseIngest(id string) (StreamStatus, error) {
	st := s.get(id)
	if st == nil {
		return StreamStatus{}, fmt.Errorf("%w: %s", errStreamNotFound, id)
	}
	st.unpause() // a paused stream must still be able to drain
	st.closeIngest()
	// A client-initiated close is durable intent: a re-adopted stream
	// re-closes its queue after replay and drains to done. (Shutdown's
	// internal closeIngest is not recorded — a drain is not the client
	// ending the stream.)
	s.manifestSetClosed(id)
	s.log.Info("stream ingest closed", "stream", id)
	return st.status(), nil
}

// Delete stops a stream promptly (no final drain — use CloseIngest first
// for a graceful end) and removes it from the registry, the manifest, the
// disk (checkpoints, WAL, and token journal are reclaimed) and /metrics.
func (s *Server) Delete(id string) error {
	st := s.get(id)
	if st == nil || !st.deleting.CompareAndSwap(false, true) {
		return fmt.Errorf("%w: %s", errStreamNotFound, id)
	}
	// Drop the id's series while the id still maps to st: until the removal
	// below a create of the same id is refused, so every series a later
	// create registers is its own.
	s.metrics.dropStream(id)
	sh := s.shard(id)
	sh.mu.Lock()
	delete(sh.m, id)
	sh.mu.Unlock()
	s.nstreams.Add(-1)
	st.stop()
	st.unpause()
	<-st.runDone()
	// closeIngest waits for any in-flight ingest request (they hold
	// ingestMu for their whole body) so drainQueue below sees a closed,
	// sender-free queue.
	st.closeIngest()
	st.drainQueue()
	s.gcStream(st)
	s.metrics.moveState(st.currentState(), "")
	s.log.Info("stream deleted", "stream", id)
	return nil
}

// DrainReport summarizes a graceful shutdown: each stream's final state
// ("done", or "state: error" for anything less clean).
type DrainReport struct {
	Streams map[string]string
	Clean   bool
	Took    time.Duration
}

// Shutdown drains every stream concurrently: ingest closes, pipelines
// publish their final windows and checkpoints, leases release. Streams
// that outlive ctx are cancelled hard (their newest checkpoint still makes
// resume correct — the tail past it is simply republished on restart).
func (s *Server) Shutdown(ctx context.Context) DrainReport {
	s.draining.Store(true)
	t0 := time.Now()
	rep := DrainReport{Streams: map[string]string{}, Clean: true}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, st := range s.all() {
		st := st
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.unpause()
			closed := make(chan struct{})
			go func() {
				// May block behind a slow in-flight ingest request; the
				// deadline path below does not wait for it.
				st.closeIngest()
				close(closed)
			}()
			select {
			case <-closed:
			case <-ctx.Done():
				st.stop()
			}
			select {
			case <-st.runDone():
			case <-ctx.Done():
				st.stop()
				<-st.runDone()
			}
			st.closeDurable()
			st.releaseLease()
			state, lastErr := st.finalState()
			mu.Lock()
			defer mu.Unlock()
			if state == StateDone {
				rep.Streams[st.id] = state
			} else {
				rep.Streams[st.id] = state + ": " + lastErr
				rep.Clean = false
			}
		}()
	}
	wg.Wait()
	s.cancel()
	s.wg.Wait()
	rep.Took = time.Since(t0)
	s.metrics.observeDrain(rep.Took)
	s.log.Info("server drained", "streams", len(rep.Streams),
		"clean", rep.Clean, "took", rep.Took.String())
	return rep
}

// Abort cancels every stream immediately — the simulated crash: no final
// windows, no final checkpoints. Leases are released (the process is
// exiting on purpose); the stale-lease path covers real crashes.
func (s *Server) Abort() {
	s.draining.Store(true)
	s.cancel()
	streams := s.all()
	for _, st := range streams {
		st.unpause()
	}
	s.wg.Wait()
	for _, st := range streams {
		// Close drops any unsynced buffered WAL frames — exactly what the
		// real crash being simulated would lose.
		st.closeDurable()
		st.releaseLease()
	}
	s.log.Warn("server aborted", "streams", len(streams))
}
