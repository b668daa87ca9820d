package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/itemset"
	"repro/internal/pipeline"
)

// reference is a standalone pipeline's output over the records a stream
// received: what every server incarnation of that stream must publish.
type reference struct {
	positions []int
	hash      map[int]uint64
	bodies    map[int]string // rendered bodies, for the positions asked for
	// bad lists windows whose sanitized supports break the perturbation
	// bound against the true supports.
	bad []string
}

// runReference runs pipeline.RunContext over recs twice in lockstep — with
// the stream's configuration, and with Raw: true for the true supports — and
// checks each sanitized window against its raw twin as they arrive, so no
// more than one window pair is ever held in memory. render names the
// positions whose bodies the server retained, to be byte-compared.
func runReference(w workload, seed uint64, recs []itemset.Itemset, vocab *data.Vocabulary, render map[int]bool) (*reference, error) {
	ref := &reference{hash: map[int]uint64{}, bodies: map[int]string{}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pert := make(chan pipeline.Window)
	raw := make(chan pipeline.Window)
	errs := make(chan error, 2)
	run := func(raw bool, ch chan<- pipeline.Window) {
		defer close(ch)
		p, err := pipeline.New(w.pipelineConfig(seed, raw))
		if err != nil {
			errs <- err
			return
		}
		_, err = p.RunContext(ctx, pipeline.SliceSource(recs), func(win pipeline.Window) error {
			select {
			case ch <- win:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		p.Wait()
		errs <- err
	}
	go run(false, pert)
	go run(true, raw)

	var fault error
	params := w.params()
	for pw := range pert {
		rw, ok := <-raw
		if fault != nil {
			continue
		}
		if !ok || rw.Position != pw.Position {
			fault = fmt.Errorf("reference: raw and sanitized runs disagree at position %d", pw.Position)
			cancel()
			continue
		}
		ref.positions = append(ref.positions, pw.Position)
		ref.hash[pw.Position] = windowHash(pw.Output)
		if render[pw.Position] {
			body, err := renderWindow(pw.Output, vocab)
			if err != nil {
				fault = err
				cancel()
				continue
			}
			ref.bodies[pw.Position] = body
		}
		if err := checkBounds(params, pw.Output, rw.Output); err != nil {
			ref.bad = append(ref.bad, fmt.Sprintf("window %d: %v", pw.Position, err))
		}
	}
	for range raw {
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil && fault == nil {
			fault = fmt.Errorf("reference: %w", err)
		}
	}
	return ref, fault
}

// timePipeline is the reference run alone and timed: the pipeline's own
// throughput over the records, with no HTTP, queue or WAL in front of it.
func timePipeline(w workload, seed uint64, recs []itemset.Itemset) (float64, error) {
	p, err := pipeline.New(w.pipelineConfig(seed, false))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err = p.RunContext(context.Background(), pipeline.SliceSource(recs), func(pipeline.Window) error { return nil })
	d := time.Since(t0)
	p.Wait()
	return float64(len(recs)) / d.Seconds(), err
}

// renderWindow renders a window exactly as the server's emit does for GET
// /windows.
func renderWindow(out *core.Output, vocab *data.Vocabulary) (string, error) {
	entries := make([]data.PublishedEntry, 0, len(out.Items))
	for _, it := range out.Items {
		entries = append(entries, data.PublishedEntry{Support: it.Support, Set: it.Set})
	}
	var buf bytes.Buffer
	if err := data.WritePublished(&buf, entries, vocab); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// checkBounds is the paper's contract on one window: the sanitized window
// publishes exactly the frequent itemsets, and each sanitized support s̃
// lies within MaxBias(t) + α/2 of its true support t (bias plus the
// uncertainty region's half-width).
func checkBounds(p core.Params, pert, raw *core.Output) error {
	if len(pert.Items) != len(raw.Items) {
		return fmt.Errorf("%d itemsets published, %d frequent", len(pert.Items), len(raw.Items))
	}
	truth := make(map[string]int, len(raw.Items))
	for _, it := range raw.Items {
		truth[it.Set.Key()] = it.Support
	}
	half := p.Alpha() / 2
	for _, it := range pert.Items {
		k := it.Set.Key()
		t, ok := truth[k]
		if !ok {
			return fmt.Errorf("itemset %v published but not frequent (or published twice)", it.Set)
		}
		delete(truth, k)
		if d := it.Support - t; d > p.MaxBias(t)+half || -d > p.MaxBias(t)+half {
			return fmt.Errorf("itemset %v: sanitized %d, true %d, bound %d", it.Set, it.Support, t, p.MaxBias(t)+half)
		}
	}
	return nil
}

// verdict is the oracle's count over one run.
type verdict struct {
	expected int // windows that had to be published
	missing  int
	wrong    int
	notes    []string
}

func (v *verdict) notef(format string, args ...any) {
	if len(v.notes) < 20 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// check checks one stream against its reference. Every wanted position
// (all of the reference's when want is nil) must be published at least
// once, across the stream's incarnations; every publication, republications
// after a crash included, must carry the reference's content for a position
// the reference publishes; and every body the server returned for GET
// /windows must be byte-identical to the reference rendering.
func (v *verdict) check(what string, ref *reference, inc incarnation) {
	want := inc.want
	if want == nil {
		want = ref.positions
	}
	v.expected += len(want)
	seen := map[int]bool{}
	for _, ps := range inc.pubs {
		for _, e := range ps {
			h, ok := ref.hash[e.pos]
			switch {
			case !ok:
				v.wrong++
				v.notef("%s: unexpected window at position %d", what, e.pos)
			case h != e.hash:
				v.wrong++
				v.notef("%s: window %d differs from the reference", what, e.pos)
			default:
				seen[e.pos] = true
			}
		}
	}
	for _, p := range want {
		if !seen[p] {
			v.missing++
			v.notef("%s: window %d never published", what, p)
		}
	}
	for _, b := range inc.bodies {
		if body, ok := ref.bodies[b.Position]; !ok || body != b.Body {
			v.wrong++
			v.notef("%s: body of window %d differs from the reference", what, b.Position)
		}
	}
}

// checkRef counts every reference window that breaks the perturbation
// bound: the server published the same bytes, so it published a wrong window.
func (v *verdict) checkRef(what string, ref *reference) {
	v.wrong += len(ref.bad)
	for _, b := range ref.bad {
		v.notef("%s: %s", what, b)
	}
}
