// Command servicebench measures the Butterfly sanitization service end to
// end, the way a butterflyd user pays for it: HTTP accept → parse → WAL
// fsync → queue → mine → perturb → emit → checkpoint → published window. It
// boots an in-process server.Server behind httptest, drives it from one
// client on one keep-alive connection, checks every published window
// against a standalone pipeline reference, and prints one JSON result line.
//
//	servicebench --workload optimizer-heavy --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and traced, replays the corpus through each layer with a span
// around every call, writes the spans as Chrome trace-event JSON under
// .bench_build/traces/, and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// outDir is where runs keep their data directories and traces, relative to
// the working directory (the checkout root).
const outDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: durable-ingest or optimizer-heavy")
	seed := flag.Uint64("seed", 1, "workload seed: drives the record generator and the stream's perturbation seed")
	seconds := flag.Float64("seconds", 30, "measured seconds: sizes the live and backfill phases")
	traced := flag.Int("trace", 0, "1: per-layer run (traced server run plus layer replay); 0: end-to-end run")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "servicebench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	// Two processors, as on the machine the workloads were sized on. With a
	// third, the pipeline stages and the HTTP handler spread over more
	// threads than there are CPUs and backfill throughput varied by a fifth
	// between runs.
	runtime.GOMAXPROCS(2)
	res, err := bench(w, *seed, *seconds, *traced == 1, w.reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servicebench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servicebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench runs one workload and assembles its result. An error means the
// benchmark itself could not run; a program that misbehaves yields a result
// with correct = false instead.
func bench(w workload, seed uint64, seconds float64, traced bool, reps int) (*result, error) {
	p := w.plan(seconds)
	c := newCorpus(w.profile, seed, p.total())
	dir := filepath.Join(outDir, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &result{Metrics: map[string]metric{}}
	v := &verdict{}
	var runs []*serverRun
	runErrs := 0
	service := func(what string, reps int, rec *recorder) *serverRun {
		run, err := runService(runSpec{w: w, seed: seed, plan: p, corpus: c, reps: reps,
			dir: filepath.Join(dir, what), rec: rec})
		if err != nil {
			runErrs++
			v.notef("%s run: %v", what, err)
		}
		runs = append(runs, run)
		return run
	}
	var rec *recorder
	var plain, tr *serverRun
	if traced {
		// Set-up is not reported from a traced invocation: one repetition.
		plain = service("untraced", 1, nil)
		rec = &recorder{}
		tr = service("traced", 1, rec)
	} else {
		plain = service("untraced", reps, nil)
	}

	// The oracle: the main stream against a reference over every record it
	// received, and on memory-only workloads the refilled stream against a
	// reference over the last window of records.
	recs, vocab, err := c.records(0, p.total())
	if err != nil {
		return nil, err
	}
	render := map[int]bool{}
	refillRender := map[int]bool{}
	for _, r := range runs {
		for _, inc := range r.checks {
			for _, b := range inc.bodies {
				if inc.refill {
					refillRender[b.Position] = true
				} else {
					render[b.Position] = true
				}
			}
		}
	}
	ref, err := runReference(w, seed, recs, vocab, render)
	if err != nil {
		return nil, err
	}
	v.checkRef("stream reference", ref)
	var rref *reference
	if !w.durable {
		a := p.backEnd() - w.window
		rrecs, rvocab, err := c.records(a, a+w.window)
		if err != nil {
			return nil, err
		}
		if rref, err = runReference(w, seed, rrecs, rvocab, refillRender); err != nil {
			return nil, err
		}
		v.checkRef("refill reference", rref)
	}
	for _, r := range runs {
		for _, inc := range r.checks {
			if inc.refill {
				v.check("refill", rref, inc)
			} else {
				v.check("stream", ref, inc)
			}
		}
		res.Attempted += r.tally.posts
		res.Failed += r.tally.failed
	}
	res.Attempted += v.expected
	res.Failed += v.missing + v.wrong + runErrs
	res.Correct = res.Failed == 0
	for _, n := range v.notes {
		fmt.Fprintf(os.Stderr, "servicebench: oracle: %s\n", n)
	}

	if plain != nil {
		fmt.Fprintf(os.Stderr, "servicebench: %s: %d records (fill %d, %d rounds of live %d and backfill %d, tail %d); set-up %.3v s, backfill %.3v s, recovery %.3v s\n",
			w.name, p.total(), p.fill, rounds, p.liveRound, p.backRound, p.tail, plain.setup, plain.backSecs, plain.recovery)
		if v, ok := percentile(plain.late, 0.99); ok {
			fmt.Fprintf(os.Stderr, "servicebench: live sends late p99 %.3f ms over %d requests\n", v, len(plain.late))
		}
	}
	m := metrics{res.Metrics}
	if !traced {
		m.endToEnd(plain)
		return res, nil
	}
	replay, err := replayLayers(w, seed, p, c, filepath.Join(dir, "replay"), rec)
	if err != nil {
		return nil, err
	}
	sweep, err := gammaSweep(seed, sweepWindows)
	if err != nil {
		return nil, err
	}
	pipeRate, err := timePipeline(w, seed, recs)
	if err != nil {
		return nil, err
	}
	mineShare, perturbOverMine, err := fig8Probe(seed, fig8Windows)
	if err != nil {
		return nil, err
	}
	m.perLayer(plain, tr, replay, sweep, pipeRate)
	m.set("fig8.moment_share", mineShare, "frac")
	m.set("fig8.perturb_over_mine", perturbOverMine, "ratio")
	path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := rec.writeChrome(path, map[int]string{1: "traced server run (seams)", 2: "layer replay"}); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "servicebench: trace written to %s\n", path)
	return res, nil
}

// sweepWindows is how many optimizer-heavy windows the γ sweep times, and
// fig8Windows how many steady-state windows the Fig. 8 probe times.
const (
	sweepWindows = 10
	fig8Windows  = 20
)

type metrics struct{ m map[string]metric }

func (m metrics) set(name string, v float64, unit string) { m.m[name] = metric{v, unit} }

// pct reports the p-quantile of xs as the median over segments (see
// segmentedPercentile), or omits it — saying so — when fewer than minBeyond
// samples lie beyond it.
func (m metrics) pct(name string, xs []float64, p float64, unit string) {
	if v, ok := segmentedPercentile(xs, p); ok {
		m.set(name, v, unit)
		return
	}
	fmt.Fprintf(os.Stderr, "servicebench: %s omitted: %d samples leave fewer than %d beyond it\n", name, len(xs), minBeyond)
}

func (m metrics) endToEnd(r *serverRun) {
	if r == nil {
		return
	}
	if len(r.setup) > 0 {
		m.set("setup_s", median(r.setup), "s")
	}
	m.pct("window_lag_p50_ms", r.lag, 0.50, "ms")
	if len(r.recovery) > 0 {
		m.set("recovery_s", median(r.recovery), "s")
	}
	if r.backSecs > 0 {
		m.set("live_heap_mb", r.heapMB, "MB")
	}
}

func (m metrics) perLayer(plain, tr *serverRun, rp *replayStats, sweep map[int]float64, pipeRate float64) {
	if plain == nil || tr == nil || plain.backSecs <= 0 || tr.backSecs <= 0 {
		return
	}
	// Backfill throughput moves with the shared host's processor speed, which
	// drifted by a fifth over minutes on the tuning machine: reported, not
	// bounded (see README.md, Steadiness).
	rate := median(plain.backRates)
	m.set("records_per_s", rate, "1/s")
	m.set("server.backpressure_frac", plain.backPress, "frac")
	m.set("pipeline.source_wait_frac", tr.srcWait.Seconds()/tr.backSecs, "frac")
	m.pct("pipeline.emit_ms_p50", tr.emitDurations(), 0.50, "ms")
	m.set("pipeline.records_per_s", pipeRate, "1/s")
	m.set("server.service_tax", rate/pipeRate, "ratio")

	self := func(l string) float64 { return rp.self[l].Seconds() }
	win := float64(rp.windows)
	m.set("data.parse_us_per_line", self(parseLayer)*1e6/float64(rp.lines), "us")
	m.set("data.render_ms_per_window", self(renderLayer)*1e3/win, "ms")
	m.set("wal.append_us_per_line", (self(walLayer)-sum(rp.syncMs)/1e3)*1e6/float64(rp.lines), "us")
	m.pct("wal.sync_ms_p50", rp.syncMs, 0.50, "ms")
	m.pct("wal.sync_ms_p99", rp.syncMs, 0.99, "ms")
	m.set("wal.bytes_per_line", float64(rp.walBytes)/float64(rp.lines), "B")
	m.set("wal.open_ms", rp.openMs, "ms")
	m.set("wal.replay_lines_per_s", rp.tailPerSec, "1/s")
	m.set("checkpoint.full_save_ms", median(rp.fullMs), "ms")
	m.set("checkpoint.delta_append_ms", median(rp.deltaMs), "ms")
	m.set("checkpoint.full_kb", median(rp.fullKB), "KiB")
	m.set("checkpoint.delta_kb", median(rp.deltaKB), "KiB")
	m.set("checkpoint.restore_ms", rp.restoreMs, "ms")
	m.set("moment.push_us_per_record", (self(momentLayer)-rp.snapshotNs.Seconds())*1e6/float64(rp.pushes), "us")
	m.set("moment.snapshot_ms_per_window", rp.snapshotNs.Seconds()*1e3/win, "ms")
	m.set("moment.itemsets_per_window", float64(rp.itemsets)/win, "count")
	m.set("fec.partition_us_per_window", rp.partitionNs.Seconds()*1e6/win, "us")
	m.set("fec.classes_per_window", float64(rp.classes)/win, "count")
	m.set("core.bias_opt_ms_per_window", self(biasLayer)*1e3/win, "ms")
	m.set("core.bias_reuse_frac", 1-float64(rp.biasCalls)/win, "frac")
	m.set("core.perturb_ms_per_window", self(perturbLayer)*1e3/win, "ms")
	m.set("core.cache_entries", float64(rp.cacheLen), "count")
	// Fig. 8: the whole sanitization step (partition, bias, perturbation)
	// against mining (push and snapshot).
	m.set("core.perturb_over_mine", (self(fecLayer)+self(biasLayer)+self(perturbLayer))/self(momentLayer), "ratio")
	for _, g := range []int{2, 3, 4} {
		m.set(fmt.Sprintf("core.bias_opt_ms.gamma%d", g), sweep[g], "ms")
	}

	// Live latencies too unsteady on a shared two-CPU machine to gate a
	// change (see README.md, Steadiness): reported, not bounded.
	m.pct("live.ingest_p50_ms", plain.ingest, 0.50, "ms")
	m.pct("live.ingest_p99_ms", plain.ingest, 0.99, "ms")
	m.pct("live.window_lag_p90_ms", plain.lag, 0.90, "ms")
	m.pct("harness.late_ms_p99", plain.late, 0.99, "ms")
	m.set("trace.overhead_frac", tr.backSecs/plain.backSecs-1, "frac")
	m.set("trace.coverage", rp.onPathSelf(true).Seconds()/plain.backSecs, "frac")
	m.set("process.cpu_s_per_krecord", plain.cpuSecs/(float64(plain.cpuRecords)/1000), "s/krecord")

	// Each workload's stated shape, as the trace should confirm it.
	onPath := rp.onPathSelf(false).Seconds()
	m.set("shape.moment_share", self(momentLayer)/onPath, "frac")
	m.set("shape.bias_share", self(biasLayer)/onPath, "frac")
	// POST round trips already contain the server's parse, WAL append and
	// group fsync; the checkpoint happens off the request path.
	ingestSide := tr.tally.postTime.Seconds()
	if rp.onPath[ckptLayer] {
		ingestSide += self(ckptLayer)
	}
	compute := self(momentLayer) + self(fecLayer) + self(biasLayer) + self(perturbLayer)
	m.set("shape.ingest_over_compute", ingestSide/compute, "ratio")
}
