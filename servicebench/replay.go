package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fec"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/mining/moment"
	"repro/internal/rng"
	"repro/internal/wal"
)

// Layers of the replay's self-time budget. walLayer and ckptLayer are on
// the stream's path only for durable workloads; on memory-only workloads the
// replay still exercises them (their per-layer metrics describe what
// durability would cost on that corpus) but leaves them out of the shares
// and the coverage.
const (
	parseLayer   = "data.parse"
	walLayer     = "wal"
	momentLayer  = "moment"
	fecLayer     = "fec"
	biasLayer    = "core.bias"
	perturbLayer = "core.perturb"
	renderLayer  = "data.render"
	ckptLayer    = "checkpoint"
)

// replayStats is what the layer replay measured.
type replayStats struct {
	self     map[string]time.Duration // per layer, whole replay
	selfBack map[string]time.Duration // per layer, backfill records and windows only
	onPath   map[string]bool

	lines      int
	walBytes   int64
	syncMs     []float64
	openMs     float64
	tailPerSec float64

	fullMs, deltaMs []float64
	fullKB, deltaKB []float64
	restoreMs       float64

	pushes      int
	windows     int
	itemsets    int
	classes     int
	biasCalls   int
	cacheLen    int
	partitionNs time.Duration
	snapshotNs  time.Duration
}

func (s *replayStats) onPathSelf(back bool) time.Duration {
	m := s.self
	if back {
		m = s.selfBack
	}
	var t time.Duration
	for l, d := range m {
		if s.onPath[l] {
			t += d
		}
	}
	return t
}

// replayLayers feeds the run's corpus and the workload's configuration
// through each layer's public functions on one goroutine, in the order the
// server runs them, with a span around every call: parse and WAL append per
// line, one WAL group sync per POST-sized batch, Moment push per record,
// and per window snapshot, FEC partition, bias optimization, publish, render
// and checkpoint; then the read path — checkpoint restore, WAL open and tail
// read. The bias memo is replicated from outside, so Scheme.Biases runs only
// when the FEC ladder changes, as it does inside Publish; the publish span's
// self time is its duration minus the partition and bias calls made just
// before it, which Publish repeats internally.
func replayLayers(w workload, seed uint64, p plan, c corpus, dir string, rec *recorder) (*replayStats, error) {
	st := &replayStats{
		self:     map[string]time.Duration{},
		selfBack: map[string]time.Duration{},
		onPath: map[string]bool{
			parseLayer: true, momentLayer: true, fecLayer: true, biasLayer: true,
			perturbLayer: true, renderLayer: true,
			walLayer: w.durable, ckptLayer: w.durable,
		},
	}
	phases := p.phases()
	inBackfill := func(pos int) bool {
		for _, ph := range phases {
			if !ph.live && pos > ph.a && pos <= ph.b {
				return true
			}
		}
		return false
	}
	charge := func(layer string, pos int, d time.Duration) {
		st.self[layer] += d
		if inBackfill(pos) {
			st.selfBack[layer] += d
		}
	}
	const pid = 2
	call := func(track, name string, t0 time.Time) time.Duration {
		d := time.Since(t0)
		rec.add(span{pid: pid, track: track, name: name, start: t0, dur: d, n: 1})
		return d
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lg, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	toks, _, err := wal.OpenTokens(dir, nil)
	if err != nil {
		lg.Close()
		return nil, err
	}
	store, err := checkpoint.NewStore(dir, 0)
	if err != nil {
		lg.Close()
		toks.Close()
		return nil, err
	}
	closeAll := func() error {
		return firstErr(lg.Close(), toks.Close(), store.Close())
	}

	params := w.params()
	scheme := w.scheme()
	meta := w.pipelineConfig(seed, false).Fingerprint()
	pub, err := core.NewPublisher(params, scheme, rng.New(streamSeed(seed)))
	if err != nil {
		closeAll()
		return nil, err
	}
	pub.SetWorkers(workers)
	pub.SetDeltaTracking(true)
	miner := moment.New(w.window, w.support)
	vocab := data.NewVocabulary()

	var (
		recycled  *mining.Result
		classes   []fec.Class
		members   []itemset.Itemset
		ladder    []int // (support, size) pairs of the last optimized ladder
		scratch   []int
		appended  []itemset.Itemset
		lastGen   uint64
		ckptSeq   int
		published uint64
		body      bytes.Buffer
		pos       int
		lastPub   int
	)
	publish := func() error {
		published++
		t0 := time.Now()
		res := miner.FrequentInto(recycled)
		d := call("replay", "moment.FrequentInto", t0)
		charge(momentLayer, pos, d)
		st.snapshotNs += d
		st.itemsets += res.Len()

		t0 = time.Now()
		classes, members = fec.PartitionInto(res, classes, members)
		dPart := call("replay", "fec.PartitionInto", t0)
		charge(fecLayer, pos, dPart)
		st.partitionNs += dPart
		st.classes += len(classes)

		scratch = scratch[:0]
		for _, cl := range classes {
			scratch = append(scratch, cl.Support, cl.Size())
		}
		var dBias time.Duration
		if ladder == nil || !equalInts(scratch, ladder) {
			t0 = time.Now()
			scheme.Biases(classes, params)
			dBias = call("replay", "Scheme.Biases", t0)
			charge(biasLayer, pos, dBias)
			st.biasCalls++
			ladder = append(ladder[:0], scratch...)
		}

		t0 = time.Now()
		out, err := pub.Publish(res, w.window)
		dPub := call("replay", "core.Publisher.Publish", t0)
		if err != nil {
			return err
		}
		charge(perturbLayer, pos, dPub-dPart-dBias)

		t0 = time.Now()
		entries := make([]data.PublishedEntry, 0, len(out.Items))
		for _, it := range out.Items {
			entries = append(entries, data.PublishedEntry{Support: it.Support, Set: it.Set})
		}
		body.Reset()
		if err := data.WritePublished(&body, entries, vocab); err != nil {
			return err
		}
		charge(renderLayer, pos, call("replay", "data.WritePublished", t0))

		// Every window checkpoints; every 16th generation is a full
		// snapshot, the rest delta frames — the durable workload's schedule.
		ckptSeq++
		t0 = time.Now()
		if (ckptSeq-1)%16 == 0 {
			snap := &checkpoint.Snapshot{Meta: meta, Records: uint64(pos), Published: published,
				Window: miner.Window(), Publisher: *pub.Snapshot()}
			charge(ckptLayer, pos, call("replay", "checkpoint capture (full)", t0))
			t0 = time.Now()
			err = store.Save(snap)
			d := call("replay", "checkpoint.Store.Save", t0)
			charge(ckptLayer, pos, d)
			st.fullMs = append(st.fullMs, ms(d))
			st.fullKB = append(st.fullKB, float64(store.LastSaveBytes())/1024)
		} else {
			app := appended
			if len(app) > w.window {
				app = app[len(app)-w.window:]
			}
			dl := &checkpoint.Delta{ParentRecords: lastGen, Records: uint64(pos), Published: published,
				Appended: append([]itemset.Itemset(nil), app...), Publisher: *pub.SnapshotDelta()}
			charge(ckptLayer, pos, call("replay", "checkpoint capture (delta)", t0))
			t0 = time.Now()
			err = store.AppendDelta(dl)
			d := call("replay", "checkpoint.Store.AppendDelta", t0)
			charge(ckptLayer, pos, d)
			st.deltaMs = append(st.deltaMs, ms(d))
			st.deltaKB = append(st.deltaKB, float64(store.LastSaveBytes())/1024)
		}
		if err != nil {
			return err
		}
		lastGen = uint64(pos)
		appended = appended[:0]
		recycled = res
		st.windows++
		lastPub = pos
		return nil
	}

	// Replay the POSTs as the server received them: fill, backfill and tail
	// in backfill-sized batches, live in live-sized ones.
	type group struct{ a, b int }
	var groups []group
	batched := func(a, b, n int) {
		for ; a < b; a += n {
			groups = append(groups, group{a, min(a+n, b)})
		}
	}
	batched(0, p.fill, w.backBatch)
	for _, ph := range p.phases() {
		if ph.live {
			batched(ph.a, ph.b, w.liveBatch)
		} else {
			batched(ph.a, ph.b, w.backBatch)
		}
	}
	batched(p.backEnd(), p.total(), w.backBatch)

	var parseAcc, appendAcc, pushAcc merged
	recs := make([]itemset.Itemset, 0, w.backBatch)
	for _, g := range groups {
		tr := data.NewTransactionReader(bytes.NewReader(c.lines(g.a, g.b)), vocab)
		recs = recs[:0]
		for i := g.a; i < g.b; i++ {
			t0 := time.Now()
			r, err := tr.Next()
			d := time.Since(t0)
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("replay parse line %d: %w", i+1, err)
			}
			parseAcc.add(t0, d)
			charge(parseLayer, i+1, d)
			recs = append(recs, r)

			t0 = time.Now()
			err = lg.Append(wal.Record{Line: uint64(i + 1), Seq: uint64(i + 1), Rec: r})
			d = time.Since(t0)
			if err != nil {
				closeAll()
				return nil, err
			}
			appendAcc.add(t0, d)
			charge(walLayer, i+1, d)
		}
		parseAcc.flush(rec, pid, "replay data.parse", "data.TransactionReader.Next")
		appendAcc.flush(rec, pid, "replay wal.append", "wal.Log.Append")
		st.lines += g.b - g.a

		// The request's durability barrier: new vocabulary tokens first, then
		// the WAL group.
		t0 := time.Now()
		if n, total := toks.Len(), vocab.Len(); total > n {
			add := make([]string, 0, total-n)
			for i := n; i < total; i++ {
				add = append(add, vocab.Token(itemset.Item(i)))
			}
			toks.Append(add)
		}
		err := firstErr(toks.Sync(), lg.Sync())
		d := call("replay", "wal.Log.Sync + TokenLog.Sync", t0)
		if err != nil {
			closeAll()
			return nil, err
		}
		charge(walLayer, g.b, d)
		st.syncMs = append(st.syncMs, ms(d))

		for _, r := range recs {
			pos++
			t0 := time.Now()
			miner.Push(r)
			d := time.Since(t0)
			pushAcc.add(t0, d)
			charge(momentLayer, pos, d)
			st.pushes++
			appended = append(appended, r)
			if len(appended) >= 2*w.window {
				appended = append(appended[:0], appended[len(appended)-w.window:]...)
			}
			if pos >= w.window && (pos-w.window)%w.publishEvery == 0 {
				pushAcc.flush(rec, pid, "replay moment.push", "moment.Miner.Push")
				if err := publish(); err != nil {
					closeAll()
					return nil, err
				}
			}
		}
		pushAcc.flush(rec, pid, "replay moment.push", "moment.Miner.Push")
	}
	if lastPub != pos {
		// The closed stream's final window, as after the durable crash.
		if err := publish(); err != nil {
			closeAll()
			return nil, err
		}
	}
	st.cacheLen = pub.CacheLen()
	if err := closeAll(); err != nil {
		return nil, err
	}
	segs, _ := filepath.Glob(filepath.Join(dir, wal.SegmentGlob))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			st.walBytes += fi.Size()
		}
	}

	// The read path a recovery takes.
	rstore, err := checkpoint.NewStore(dir, 0)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	snap, _, err := rstore.LatestDetail()
	st.restoreMs = ms(call("replay", "checkpoint.Store.LatestDetail", t0))
	rstore.Close()
	if err != nil || snap == nil || snap.Records != uint64(lastPub) {
		return nil, fmt.Errorf("replay restore: snapshot %v, err %v", snap != nil, err)
	}
	t0 = time.Now()
	rtoks, _, err := wal.OpenTokens(dir, nil)
	if err != nil {
		return nil, err
	}
	rlg, _, err := wal.Open(dir, wal.Options{})
	st.openMs = ms(call("replay", "wal.Open + OpenTokens", t0))
	rtoks.Close()
	if err != nil {
		return nil, err
	}
	defer rlg.Close()
	t0 = time.Now()
	tail, err := rlg.Tail(0, rlg.LastLine())
	d := call("replay", "wal.Log.Tail", t0)
	if err != nil {
		return nil, err
	}
	if len(tail) != st.lines {
		return nil, fmt.Errorf("replay wal tail: %d records, want %d", len(tail), st.lines)
	}
	st.tailPerSec = float64(len(tail)) / d.Seconds()
	return st, nil
}

// gammaSweep times the hybrid scheme's bias optimization at γ = 2, 3, 4 on
// the optimizer-heavy workload's corpus for this seed (Fig. 6's lookback
// sweep): γ = 4 leaves the dense DP for the sparse beam search. It returns
// the median milliseconds per window for each γ.
func gammaSweep(seed uint64, windows int) (map[int]float64, error) {
	w, err := workloadByName("optimizer-heavy")
	if err != nil {
		return nil, err
	}
	n := w.window + (windows-1)*w.publishEvery
	recs, _, err := newCorpus(w.profile, seed, n).records(0, n)
	if err != nil {
		return nil, err
	}
	params := w.params()
	miner := moment.New(w.window, w.support)
	times := map[int][]float64{}
	for i, r := range recs {
		miner.Push(r)
		pos := i + 1
		if pos < w.window || (pos-w.window)%w.publishEvery != 0 {
			continue
		}
		classes := fec.Partition(miner.Frequent())
		for _, g := range []int{2, 3, 4} {
			s := core.Hybrid{Lambda: lambda, Order: core.OrderPreserving{Gamma: g}}
			t0 := time.Now()
			s.Biases(classes, params)
			times[g] = append(times[g], ms(time.Since(t0)))
		}
	}
	out := map[int]float64{}
	for g, xs := range times {
		out[g] = median(xs)
	}
	return out, nil
}

// fig8Probe replays the Fig. 8 configuration (see fig8) for a number of
// steady-state windows on one goroutine and times mining — the pushes of a
// publication interval plus the snapshot — against sanitization, the whole
// Publish call (partition, bias, perturbation). It returns mining's share
// of the two and their ratio sanitization ÷ mining.
func fig8Probe(seed uint64, windows int) (mineShare, perturbOverMine float64, err error) {
	w := fig8
	n := w.window + windows*w.publishEvery
	recs, _, err := newCorpus(w.profile, seed, n).records(0, n)
	if err != nil {
		return 0, 0, err
	}
	pub, err := core.NewPublisher(w.params(), w.scheme(), rng.New(streamSeed(seed)))
	if err != nil {
		return 0, 0, err
	}
	pub.SetWorkers(workers)
	miner := moment.New(w.window, w.support)
	var mine, sanitize time.Duration
	var recycled *mining.Result
	for i, r := range recs {
		pos := i + 1
		t0 := time.Now()
		miner.Push(r)
		if pos > w.window {
			mine += time.Since(t0)
		}
		if pos < w.window || (pos-w.window)%w.publishEvery != 0 {
			continue
		}
		t0 = time.Now()
		res := miner.FrequentInto(recycled)
		d := time.Since(t0)
		t0 = time.Now()
		_, err := pub.Publish(res, w.window)
		if err != nil {
			return 0, 0, err
		}
		if pos > w.window {
			// The first window only warms the publisher's cache and memo.
			mine += d
			sanitize += time.Since(t0)
		}
		recycled = res
	}
	return float64(mine) / float64(mine+sanitize), float64(sanitize) / float64(mine), nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
