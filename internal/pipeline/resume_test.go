package pipeline_test

// Kill-and-resume acceptance suite for the crash-safe checkpointing
// tentpole. The correctness bar: a run killed at ANY checkpointed window
// boundary and resumed from the snapshot publishes the remaining windows
// BYTE-IDENTICALLY to an uninterrupted run — including re-published overlap
// windows, which the republication cache must re-serve unchanged (the §VI
// guarantee surviving the crash).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/itemset"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// The fixture publishes 61 windows: window size 60 over 300 records,
// publishing every 4 slides → positions 60, 64, ..., 300.
const (
	resumeWindow  = 60
	resumeRecords = 300
	resumeEvery   = 4
	resumeWindows = (resumeRecords-resumeWindow)/resumeEvery + 1
)

func resumeConfig(workers int, store *checkpoint.Store, ckptEvery int) pipeline.Config {
	cfg := pipeline.Config{
		WindowSize:      resumeWindow,
		Params:          core.Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5},
		Scheme:          core.Hybrid{Lambda: 0.4},
		Seed:            17,
		PublishEvery:    resumeEvery,
		Workers:         workers,
		CheckpointEvery: ckptEvery,
	}
	if store != nil { // a typed nil in the interface would be saved to
		cfg.Checkpoints = store
	}
	return cfg
}

// renderWindow serializes one published window to a canonical string, the
// unit of the byte-identity assertions.
func renderWindow(w pipeline.Window) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "window@%d\n", w.Position)
	for _, it := range w.Output.Items {
		fmt.Fprintf(&sb, "  %v %d\n", it.Set, it.Support)
	}
	return sb.String()
}

// resumeInput is a resume fixture stream: the records, with a malformed
// line spliced in after every badEvery-th record (0: none).
type resumeInput struct {
	records  []itemset.Itemset
	badEvery int
}

// withBadLines is the fixture's malformed-line input: every 7th record is
// followed by a bad line (42 in the 300-record fixture, none after the
// last record), interleaving with the publish-every-4 schedule.
func withBadLines(records []itemset.Itemset) resumeInput {
	return resumeInput{records: records, badEvery: 7}
}

// badBefore is how many malformed lines precede the n-th record — the
// BadRecords of a snapshot cut at record n.
func (in resumeInput) badBefore(n uint64) uint64 {
	if in.badEvery == 0 || n == 0 {
		return 0
	}
	return (n - 1) / uint64(in.badEvery)
}

// sourceAfter delivers the stream past its first n records: the records
// after the n-th, and the malformed line right after it if one is due —
// what a resumed run's source must yield (Config.Resume).
func (in resumeInput) sourceAfter(n int) pipeline.RecordSource {
	return &badLineSource{in: in, next: n,
		badDue: in.badEvery > 0 && n > 0 && n%in.badEvery == 0}
}

// badLineSource yields an input's records, each malformed line surfacing
// as the *data.ParseError a ReaderSource would report.
type badLineSource struct {
	in     resumeInput
	next   int // index of the next record
	badDue bool
}

func (s *badLineSource) Next() (itemset.Itemset, error) {
	if s.badDue {
		s.badDue = false
		return itemset.Itemset{}, &data.ParseError{Token: "bad\x00token", Err: data.ErrTokenNUL}
	}
	if s.next >= len(s.in.records) {
		return itemset.Itemset{}, io.EOF
	}
	rec := s.in.records[s.next]
	s.next++
	s.badDue = s.in.badEvery > 0 && s.next%s.in.badEvery == 0
	return rec, nil
}

// errKilled is the permanent sink failure standing in for the process dying
// right after a window boundary.
var errKilled = errors.New("simulated kill")

// runKilled drives cfg over the input through a sink that accepts the first
// kill windows and then dies. It returns the windows delivered before death;
// kill >= the total window count delivers everything without an error.
func runKilled(t *testing.T, cfg pipeline.Config, in resumeInput, kill int) []string {
	t.Helper()
	if in.badEvery > 0 {
		cfg.MaxBadRecords = -1
	}
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	_, err = p.RunContext(context.Background(), in.sourceAfter(0),
		func(w pipeline.Window) error {
			if len(out) >= kill {
				return errKilled
			}
			out = append(out, renderWindow(w))
			return nil
		})
	if kill < resumeWindows {
		if !errors.Is(err, errKilled) {
			t.Fatalf("killed run: %v, want the simulated kill", err)
		}
	} else if err != nil {
		t.Fatal(err)
	}
	if len(out) != min(kill, resumeWindows) {
		t.Fatalf("killed run delivered %d windows, want %d", len(out), min(kill, resumeWindows))
	}
	return out
}

// resumeRun loads the newest snapshot from store and continues the run over
// a source holding the stream past it, returning the windows it publishes.
// The resumed run's counts and every checkpoint it writes must match the
// uninterrupted run's.
func resumeRun(t *testing.T, cfg pipeline.Config, store *checkpoint.Store, in resumeInput) []string {
	t.Helper()
	snap, _, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no usable checkpoint to resume from")
	}
	if want := in.badBefore(snap.Records); snap.BadRecords != want {
		t.Fatalf("snapshot at record %d counts %d bad records, want %d", snap.Records, snap.BadRecords, want)
	}
	var badSaves []checkpoint.Saved
	store.OnSave = func(sv checkpoint.Saved) {
		if sv.BadRecords != in.badBefore(sv.Records) {
			badSaves = append(badSaves, sv)
		}
	}
	defer func() { store.OnSave = nil }()
	if in.badEvery > 0 {
		cfg.MaxBadRecords = -1
	}
	cfg.Resume = snap
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	rep, err := p.RunContext(context.Background(), in.sourceAfter(int(snap.Records)),
		func(w pipeline.Window) error {
			out = append(out, renderWindow(w))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// The resumed run continues the snapshot's counts, so the report
	// matches an uninterrupted run's view of the stream.
	if rep.Records != resumeRecords {
		t.Fatalf("resumed report counts %d records, want %d", rep.Records, resumeRecords)
	}
	if want := int(in.badBefore(resumeRecords)); rep.BadRecords != want {
		t.Fatalf("resumed report counts %d bad records, want %d", rep.BadRecords, want)
	}
	for _, sv := range badSaves {
		t.Errorf("resumed run checkpointed record %d with %d bad records, want %d",
			sv.Records, sv.BadRecords, in.badBefore(sv.Records))
	}
	return out
}

// reference runs cfg uninterrupted with no checkpointing and returns all
// windows.
func reference(t *testing.T, workers int, in resumeInput) []string {
	t.Helper()
	ref := runKilled(t, resumeConfig(workers, nil, 0), in, resumeWindows)
	if len(ref) != resumeWindows {
		t.Fatalf("fixture published %d windows, want %d", len(ref), resumeWindows)
	}
	return ref
}

func sameTail(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: window %d differs:\n got %s\nwant %s", label, i, got[i], want[i])
		}
	}
}

// TestCheckpointingIsTransparent: turning checkpointing on changes no
// published byte.
func TestCheckpointingIsTransparent(t *testing.T) {
	in := resumeInput{records: testRecords(t, resumeRecords)}
	for _, workers := range []int{1, 4} {
		store, err := checkpoint.NewStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		got := runKilled(t, resumeConfig(workers, store, 1), in, resumeWindows)
		sameTail(t, fmt.Sprintf("checkpointed vs plain, workers=%d", workers),
			got, reference(t, workers, in))
		gens, err := store.Generations()
		if err != nil || len(gens) == 0 {
			t.Fatalf("no generations written: %v, %v", gens, err)
		}
	}
}

// TestKillAndResumeByteIdentical is the acceptance sweep: kill the run after
// EVERY checkpointed window boundary of the 61-window fixture and resume;
// the resumed tail must be byte-identical to the uninterrupted reference, at
// the serial tier and two chunked worker counts. The malformed-line input
// also pins the resumed bad-record count, and every snapshot the resumed run
// writes, to the uninterrupted run's (see resumeRun).
func TestKillAndResumeByteIdentical(t *testing.T) {
	records := testRecords(t, resumeRecords)
	step := 1
	if testing.Short() {
		step = 7
	}
	inputs := []struct {
		name string
		in   resumeInput
	}{
		{"clean", resumeInput{records: records}},
		{"bad-lines", withBadLines(records)},
	}
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, input := range inputs {
				in := input.in
				t.Run(input.name, func(t *testing.T) {
					ref := reference(t, workers, in)
					for kill := 1; kill <= resumeWindows; kill += step {
						store, err := checkpoint.NewStore(t.TempDir(), 0)
						if err != nil {
							t.Fatal(err)
						}
						head := runKilled(t, resumeConfig(workers, store, 1), in, kill)
						sameTail(t, fmt.Sprintf("kill=%d head", kill), head, ref[:kill])
						tail := resumeRun(t, resumeConfig(workers, store, 1), store, in)
						sameTail(t, fmt.Sprintf("kill=%d resumed tail", kill), tail, ref[kill:])
					}
				})
			}
		})
	}
}

// TestResumeBadRecordBudgetSpansRestart: the bad-record budget counts
// across a resume exactly as in an uninterrupted run — a resumed run whose
// stream exceeds MaxBadRecords only counting the prefix fails at the same
// malformed line, with the same error.
func TestResumeBadRecordBudgetSpansRestart(t *testing.T) {
	in := withBadLines(testRecords(t, resumeRecords))
	run := func(cfg pipeline.Config, src pipeline.RecordSource, emit func(pipeline.Window) error) error {
		cfg.MaxBadRecords = int(in.badBefore(resumeRecords)) - 1
		p, err := pipeline.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.RunContext(context.Background(), src, emit)
		// The mine stage fails the run while the emit stage may still be
		// saving a checkpoint; join it before the store's directory goes.
		p.Wait()
		return err
	}
	want := run(resumeConfig(2, nil, 0), in.sourceAfter(0), func(pipeline.Window) error { return nil })
	if want == nil || !strings.Contains(want.Error(), "bad-record budget") {
		t.Fatalf("uninterrupted run: %v, want the bad-record budget exhausted", want)
	}
	store, err := checkpoint.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const kill = 40 // position 216: 30 of the 42 bad lines lie before it
	delivered := 0
	if err := run(resumeConfig(2, store, 1), in.sourceAfter(0), func(pipeline.Window) error {
		if delivered == kill {
			return errKilled
		}
		delivered++
		return nil
	}); !errors.Is(err, errKilled) {
		t.Fatalf("killed run: %v, want the simulated kill", err)
	}
	snap, _, err := store.Latest()
	if err != nil || snap == nil {
		t.Fatalf("no snapshot: %v", err)
	}
	cfg := resumeConfig(2, store, 1)
	cfg.Resume = snap
	got := run(cfg, in.sourceAfter(int(snap.Records)), func(pipeline.Window) error { return nil })
	if got == nil || got.Error() != want.Error() {
		t.Fatalf("resumed run: %v\nwant the uninterrupted run's failure: %v", got, want)
	}
}

// countingSource counts what the mine stage pulls from src: well-formed
// records and malformed lines.
type countingSource struct {
	src       pipeline.RecordSource
	good, bad uint64
}

func (c *countingSource) Next() (itemset.Itemset, error) {
	rec, err := c.src.Next()
	var pe *data.ParseError
	switch {
	case err == nil:
		c.good++
	case errors.As(err, &pe):
		c.bad++
	}
	return rec, err
}

// TestResumeCountersCountConsumedRecords: a killed run and a run resumed
// from its snapshot share one registry, as the streams of one butterflyd
// process do. The record counters count exactly what the two runs pulled
// from their sources (the resumed run does not add the snapshot's prefix
// again), while the resumed Report still spans the whole stream.
func TestResumeCountersCountConsumedRecords(t *testing.T) {
	in := withBadLines(testRecords(t, resumeRecords))
	reg := telemetry.NewRegistry()
	store, err := checkpoint.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumeConfig(2, store, 1)
	cfg.MaxBadRecords = -1
	cfg.Metrics = reg
	run := func(cfg pipeline.Config, src *countingSource, emit func(pipeline.Window) error) (*pipeline.Report, error) {
		p, err := pipeline.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.RunContext(context.Background(), src, emit)
		// Join the stages: the mine stage may still be pulling records.
		p.Wait()
		return rep, err
	}
	const kill = 20
	delivered := 0
	first := &countingSource{src: in.sourceAfter(0)}
	if _, err := run(cfg, first, func(pipeline.Window) error {
		if delivered == kill {
			return errKilled
		}
		delivered++
		return nil
	}); !errors.Is(err, errKilled) {
		t.Fatalf("killed run: %v, want the simulated kill", err)
	}
	snap, _, err := store.Latest()
	if err != nil || snap == nil {
		t.Fatalf("no snapshot: %v", err)
	}
	cfg.Resume = snap
	second := &countingSource{src: in.sourceAfter(int(snap.Records))}
	rep, err := run(cfg, second, func(pipeline.Window) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reg.CounterValue(pipeline.MetricRecords), first.good+second.good; got != want {
		t.Errorf("%s = %d, want the %d records the two runs consumed (snapshot at record %d)",
			pipeline.MetricRecords, got, want, snap.Records)
	}
	if got, want := reg.CounterValue(pipeline.MetricBadRecords), first.bad+second.bad; got != want {
		t.Errorf("%s = %d, want the %d malformed lines the two runs consumed (snapshot holds %d)",
			pipeline.MetricBadRecords, got, want, snap.BadRecords)
	}
	if rep.Records != resumeRecords || rep.BadRecords != int(in.badBefore(resumeRecords)) {
		t.Errorf("resumed report counts %d records and %d bad, want the whole stream's %d and %d",
			rep.Records, rep.BadRecords, resumeRecords, in.badBefore(resumeRecords))
	}
}

// TestSparseCheckpointRepublishesOverlapIdentically: with CheckpointEvery=3
// a kill between checkpoints resumes from an EARLIER boundary, re-publishing
// the overlap windows — which must be byte-identical to their first
// publication (the republication cache re-serving, §VI), not fresh draws.
func TestSparseCheckpointRepublishesOverlapIdentically(t *testing.T) {
	in := resumeInput{records: testRecords(t, resumeRecords)}
	for _, workers := range []int{1, 4} {
		ref := reference(t, workers, in)
		for _, kill := range []int{4, 7, 11, 32} {
			store, err := checkpoint.NewStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			runKilled(t, resumeConfig(workers, store, 3), in, kill)
			lastCkpt := (kill / 3) * 3
			tail := resumeRun(t, resumeConfig(workers, store, 3), store, in)
			label := fmt.Sprintf("workers=%d kill=%d (checkpoint at %d)", workers, kill, lastCkpt)
			sameTail(t, label, tail, ref[lastCkpt:])
		}
	}
}

// TestResumePastCorruptedLatestGeneration: bit rot in the newest snapshot
// falls back one generation; the longer re-published overlap is still
// byte-identical.
func TestResumePastCorruptedLatestGeneration(t *testing.T) {
	in := resumeInput{records: testRecords(t, resumeRecords)}
	ref := reference(t, 2, in)
	const kill = 10
	store, err := checkpoint.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	runKilled(t, resumeConfig(2, store, 1), in, kill)
	gens, err := store.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipByte(gens[len(gens)-1], -1); err != nil {
		t.Fatal(err)
	}
	var warned bool
	store.Logf = func(string, ...any) { warned = true }
	tail := resumeRun(t, resumeConfig(2, store, 1), store, in)
	sameTail(t, "resume past corruption", tail, ref[kill-1:])
	if !warned {
		t.Fatal("corrupt generation skipped without a warning")
	}
}

// TestCrashDuringCheckpointSaveThenResume: the process dies INSIDE the
// checkpoint write protocol — before the write, before the rename, or with
// a torn file under the final name. In every case the store's previous
// generation carries the resume, byte-identically.
func TestCrashDuringCheckpointSaveThenResume(t *testing.T) {
	in := resumeInput{records: testRecords(t, resumeRecords)}
	ref := reference(t, 2, in)
	for _, point := range []string{
		checkpoint.CrashBeforeWrite,
		checkpoint.CrashBeforeRename,
		checkpoint.CrashTornWrite,
	} {
		t.Run(point, func(t *testing.T) {
			const dieOnSave = 6
			store, err := checkpoint.NewStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			store.Logf = func(string, ...any) {}
			plan := &faultinject.CrashPlan{Point: point, OnSave: dieOnSave}
			store.CrashHook = plan.Hook()
			p, err := pipeline.New(resumeConfig(2, store, 1))
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			_, err = p.RunContext(context.Background(), pipeline.SliceSource(in.records),
				func(pipeline.Window) error { delivered++; return nil })
			if !errors.Is(err, checkpoint.ErrInjectedCrash) {
				t.Fatalf("run: %v, want the injected crash", err)
			}
			if plan.Fired() != 1 || delivered != dieOnSave {
				t.Fatalf("crash fired %d times after %d deliveries, want 1 after %d",
					plan.Fired(), delivered, dieOnSave)
			}
			// "Restart": a fresh store over the same directory, no crash plan.
			store, err = checkpoint.NewStore(store.Dir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			store.Logf = func(string, ...any) {}
			tail := resumeRun(t, resumeConfig(2, store, 1), store, in)
			// Save dieOnSave never committed, so the resume point is the
			// previous boundary; window dieOnSave is re-published, identically.
			sameTail(t, point, tail, ref[dieOnSave-1:])
		})
	}
}

// TestResumeAcrossWorkerCounts: every worker count publishes identically,
// so a snapshot from one must resume byte-identically under any other.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	in := resumeInput{records: testRecords(t, resumeRecords)}
	ref := reference(t, 2, in)
	const kill = 20
	for _, tc := range []struct{ from, to int }{{2, 8}, {8, 1}, {1, 8}} {
		store, err := checkpoint.NewStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		runKilled(t, resumeConfig(tc.from, store, 1), in, kill)
		tail := resumeRun(t, resumeConfig(tc.to, store, 1), store, in)
		sameTail(t, fmt.Sprintf("workers %d -> %d", tc.from, tc.to), tail, ref[kill:])
	}
}

// TestResumeRefusesMismatchedConfiguration: a snapshot from one
// configuration must not restore into another — seed, scheme, cadence or
// audit mode — and a snapshot an older build drew in the retired
// sequential order is refused with that cause.
func TestResumeRefusesMismatchedConfiguration(t *testing.T) {
	in := resumeInput{records: testRecords(t, resumeRecords)}
	store, err := checkpoint.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	runKilled(t, resumeConfig(2, store, 1), in, 5)
	snap, _, err := store.Latest()
	if err != nil || snap == nil {
		t.Fatalf("no snapshot: %v", err)
	}
	mismatches := []func(*pipeline.Config){
		func(c *pipeline.Config) { c.Seed = 99 },
		func(c *pipeline.Config) { c.Scheme = core.Basic{} },
		func(c *pipeline.Config) { c.PublishEvery = 5 },
		func(c *pipeline.Config) { c.Raw = true },
	}
	for i, mutate := range mismatches {
		cfg := resumeConfig(2, store, 1)
		mutate(&cfg)
		cfg.Resume = snap
		if _, err := pipeline.New(cfg); err == nil {
			t.Errorf("mismatch %d accepted for resume", i)
		}
	}
	// The unmutated configuration is accepted.
	cfg := resumeConfig(2, store, 1)
	cfg.Resume = snap
	if _, err := pipeline.New(cfg); err != nil {
		t.Fatalf("matching configuration refused: %v", err)
	}

	// An older build's workers=1 snapshot: this snapshot with the Chunked
	// flag clear, refused under every worker count.
	retired := *snap
	retired.Meta.Chunked = false
	enc, err := checkpoint.Encode(&retired)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := checkpoint.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		cfg := resumeConfig(workers, store, 1)
		cfg.Resume = decoded
		_, err := pipeline.New(cfg)
		if !errors.Is(err, pipeline.ErrRetiredDrawOrder) || !strings.Contains(err.Error(), "retired sequential") {
			t.Errorf("workers=%d: retired-order snapshot: %v, want %v", workers, err, pipeline.ErrRetiredDrawOrder)
		}
	}
}

// TestResumeRejectsShortSource: a source that re-presents the stream from
// its first record but cannot reach the resume position (here: truncated)
// fails the resumed run loudly — through FastForward, the one prefix skip —
// instead of silently re-mining a different stream.
func TestResumeRejectsShortSource(t *testing.T) {
	in := resumeInput{records: testRecords(t, resumeRecords)}
	store, err := checkpoint.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	runKilled(t, resumeConfig(1, store, 1), in, 10)
	snap, _, err := store.Latest()
	if err != nil || snap == nil {
		t.Fatalf("no snapshot: %v", err)
	}
	cfg := resumeConfig(1, store, 1)
	cfg.Resume = snap
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	short := pipeline.SliceSource(in.records[:int(snap.Records)/2])
	_, err = p.RunContext(context.Background(), pipeline.SkipSource(short, int(snap.Records)),
		func(pipeline.Window) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "before the fast-forward position") {
		t.Fatalf("short replay: %v, want a fast-forward-position error", err)
	}
}

// TestFinalWindowCheckpointOnDrain: a stream that ends between publication
// points publishes its final window AND checkpoints it — the graceful-drain
// snapshot a restarted service resumes from.
func TestFinalWindowCheckpointOnDrain(t *testing.T) {
	in := resumeInput{records: testRecords(t, resumeRecords)}
	store, err := checkpoint.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 298 // not a scheduled publication position
	cfg := resumeConfig(1, store, 5)
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var positions []int
	if _, err := p.RunContext(context.Background(), pipeline.SliceSource(in.records[:cut]),
		func(w pipeline.Window) error { positions = append(positions, w.Position); return nil }); err != nil {
		t.Fatal(err)
	}
	if positions[len(positions)-1] != cut {
		t.Fatalf("final window at %d, want the truncated stream end %d", positions[len(positions)-1], cut)
	}
	snap, _, err := store.Latest()
	if err != nil || snap == nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	if snap.Records != cut {
		t.Fatalf("final checkpoint at record %d, want %d", snap.Records, cut)
	}
	// The drained service restarts against the full stream, re-read from
	// its first record, and picks up exactly where it stopped.
	cfg2 := resumeConfig(1, store, 5)
	cfg2.Resume = snap
	p2, err := pipeline.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	var resumedPositions []int
	src := pipeline.SkipSource(pipeline.SliceSource(in.records), int(snap.Records))
	if _, err := p2.RunContext(context.Background(), src,
		func(w pipeline.Window) error { resumedPositions = append(resumedPositions, w.Position); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := []int{resumeRecords}; !slices.Equal(resumedPositions, want) {
		t.Fatalf("resumed positions %v, want %v: the stream end past the drain point %d", resumedPositions, want, cut)
	}
}
