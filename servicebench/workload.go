package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/itemset"
	"repro/internal/pipeline"
)

// Settings every workload shares: K, δ, the hybrid scheme's λ, and the
// sequential publisher (workers = 1), as in the paper's experiments.
const (
	vulnSupport = 5
	privDelta   = 0.4
	lambda      = 0.4
	workers     = 1
)

// Phase sizing. The live phase lasts liveShare of --seconds and the backfill
// phase is sized to take about backShare of it at the workload's nominal
// capacity; set-up, the crash phase and the correctness oracle come on top.
const (
	liveShare = 0.55
	backShare = 0.35
	// repGap separates repeated set-ups and recoveries. Memory-bound work on
	// the two-CPU machine the workloads were sized on ran up to a third
	// faster or slower from one second to the next; repetitions in one burst
	// all caught the same second, and their median moved with it.
	repGap = 300 * time.Millisecond
)

// workload is one traffic mix: a stream configuration plus the client's
// schedule. See README.md for why each was chosen.
type workload struct {
	name         string
	profile      string // record generator: "webview" or "pos"
	window       int    // H
	support      int    // C
	epsilon      float64
	gamma        int
	publishEvery int
	durable      bool    // data dir on, checkpoint every window
	liveRate     float64 // open-loop live rate, records/s
	liveBatch    int     // lines per live POST
	backBatch    int     // lines per fill, backfill and refill POST
	// backRate is the nominal backfill capacity in records/s. It only sizes
	// the backfill phase (a fixed record count per --seconds), so the amount
	// of work never depends on how fast a run happens to be.
	backRate float64
	// reps is how many times a run boots a server and fills the first
	// window, and how many recoveries (or refills) it times; setup_s and
	// recovery_s are their medians (see repGap).
	reps int
}

var workloads = []workload{
	{
		name: "durable-ingest", profile: "webview",
		window: 1000, support: 10, epsilon: 0.1, gamma: 2, publishEvery: 100,
		durable:  true,
		liveRate: 10000, liveBatch: 32, backBatch: 32, backRate: 80000, reps: 9,
	},
	{
		name: "optimizer-heavy", profile: "webview",
		window: 2000, support: 15, epsilon: 0.1, gamma: 3, publishEvery: 20,
		liveRate: 2500, liveBatch: 5, backBatch: 100, backRate: 4800, reps: 11,
	},
}

// fig8 is the paper's Fig. 8 point at its lowest support — POS-like
// records, H = 5,000, C = 10 — where Moment mining should dwarf the
// perturbation. It is measured only by the traced run's probe (see
// fig8Probe): as a timed workload its oracle re-mines every record, which
// doubled the run and left no time budget for phases long enough to be
// steady on a two-CPU machine.
var fig8 = workload{
	name: "fig8", profile: "pos",
	window: 5000, support: 10, epsilon: 0.08, gamma: 2, publishEvery: 50,
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) params() core.Params {
	return core.Params{Epsilon: w.epsilon, Delta: privDelta, MinSupport: w.support, VulnSupport: vulnSupport}
}

func (w workload) scheme() core.Scheme {
	return core.Hybrid{Lambda: lambda, Order: core.OrderPreserving{Gamma: w.gamma}}
}

// streamSeed is the perturbation seed, derived from the workload seed so
// one --seed fixes every input of a run.
func streamSeed(seed uint64) uint64 { return seed*0x9E3779B97F4A7C15 + 77 }

// pipelineConfig is the stream's pipeline as the server builds it, minus
// checkpointing: the reference the oracle compares against.
func (w workload) pipelineConfig(seed uint64, raw bool) pipeline.Config {
	return pipeline.Config{
		WindowSize:   w.window,
		Params:       w.params(),
		Scheme:       w.scheme(),
		Seed:         streamSeed(seed),
		Raw:          raw,
		PublishEvery: w.publishEvery,
		Workers:      workers,
	}
}

// rounds is how many times a run alternates a live phase with a backfill
// phase. The shared disk and memory of the machine the workloads were sized
// on had slow stretches lasting seconds; one long backfill landed wholly
// inside or outside one, and throughput read 45k or 70k rec/s by chance.
// Rounds spread each phase's samples across the run.
const rounds = 3

// plan is a run's record budget. Every boundary the client waits on is a
// publication point, so each phase ends on a published window.
type plan struct {
	fill int
	// liveRound and backRound are the records of one round's live and
	// backfill phases.
	liveRound, backRound int
	// tail is sent after the last backfill on durable workloads: records
	// that are accepted and consumed but not yet published when the server
	// crashes, so recovery must replay them from the WAL.
	tail int
}

func (w workload) plan(seconds float64) plan {
	p := plan{fill: w.window}
	// Live records are a whole number of batches and of publication
	// intervals, so each live phase ends on a window.
	step := lcm(w.liveBatch, w.publishEvery)
	p.liveRound = int(math.Ceil(seconds*liveShare*w.liveRate/rounds/float64(step))) * step
	p.backRound = int(math.Ceil(seconds*backShare*w.backRate/rounds/float64(w.publishEvery))) * w.publishEvery
	if w.durable {
		p.tail = w.publishEvery / 2
	}
	return p
}

// phase is one live or backfill phase: records [a, b).
type phase struct {
	live bool
	a, b int
}

// phases lists the live and backfill phases after the fill, in order.
func (p plan) phases() []phase {
	var out []phase
	pos := p.fill
	for r := 0; r < rounds; r++ {
		out = append(out, phase{true, pos, pos + p.liveRound}, phase{false, pos + p.liveRound, pos + p.liveRound + p.backRound})
		pos += p.liveRound + p.backRound
	}
	return out
}

// backEnd is the position of the last backfill record.
func (p plan) backEnd() int { return p.fill + rounds*(p.liveRound+p.backRound) }

func (p plan) total() int { return p.backEnd() + p.tail }

func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// corpus is the run's generated input, rendered once as the text lines the
// server ingests. The server only ever sees these bytes.
type corpus struct {
	text  []byte
	start []int // start[i] is the offset of record i; start[n] == len(text)
}

// Every run draws its records from one fixed synthetic stream per profile,
// and the seed picks where in that stream the run starts. A generator's
// seed also plants its pattern pool, which sets how many itemsets and
// equivalence classes a window holds; seeding the pool per run made the
// work itself differ by half between seeds. A fixed pool keeps the
// per-window cost stationary, so runs with different seeds measure the same
// program on the same kind of input.
const (
	profileSeed = 2008
	maxOffset   = 1 << 16
)

// startOffset maps a seed to a starting record (splitmix64 finalizer).
func startOffset(seed uint64) int {
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int((z ^ (z >> 31)) % maxOffset)
}

func newCorpus(profile string, seed uint64, n int) corpus {
	var g *data.Generator
	switch profile {
	case "pos":
		g = data.POSLike(profileSeed)
	default:
		g = data.WebViewLike(profileSeed)
	}
	for i := startOffset(seed); i > 0; i-- {
		g.Next()
	}
	c := corpus{start: make([]int, 0, n+1)}
	for i := 0; i < n; i++ {
		c.start = append(c.start, len(c.text))
		for j, it := range g.Next().Items() {
			if j > 0 {
				c.text = append(c.text, ' ')
			}
			c.text = strconv.AppendInt(c.text, int64(it), 10)
		}
		c.text = append(c.text, '\n')
	}
	c.start = append(c.start, len(c.text))
	return c
}

// lines returns records [a, b) as one request body.
func (c corpus) lines(a, b int) []byte { return c.text[c.start[a]:c.start[b]] }

// records parses records [a, b) with a fresh vocabulary — the same
// first-seen interning order a fresh server stream applies to the same
// lines, so item ids (and rendered windows) match the server's.
func (c corpus) records(a, b int) ([]itemset.Itemset, *data.Vocabulary, error) {
	vocab := data.NewVocabulary()
	tr := data.NewTransactionReader(bytes.NewReader(c.lines(a, b)), vocab)
	out := make([]itemset.Itemset, 0, b-a)
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		out = append(out, rec)
	}
	if len(out) != b-a {
		return nil, nil, fmt.Errorf("parsed %d records from %d lines", len(out), b-a)
	}
	return out, vocab, nil
}
