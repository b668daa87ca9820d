package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Spans are kept in memory while a traced run measures and written out once
// it ends, as Chrome trace-event JSON (Perfetto and chrome://tracing open
// it). Process 1 holds the seam spans of the traced server run, process 2
// the single-goroutine layer replay; each track is one thread.

type span struct {
	pid   int
	track string
	name  string
	start time.Time
	dur   time.Duration
	// n is how many calls the span stands for: per-record calls are merged
	// into one span per request or window so the file stays small.
	n int
}

type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// merged accumulates per-call timings of one kind and emits them as a single
// span: start is the first call's start and dur the calls' summed time, so
// spans on a track never overlap.
type merged struct {
	start time.Time
	dur   time.Duration
	n     int
}

func (m *merged) add(t0 time.Time, d time.Duration) {
	if m.n == 0 {
		m.start = t0
	}
	m.dur += d
	m.n++
}

func (m *merged) flush(r *recorder, pid int, track, name string) {
	if m.n > 0 {
		r.add(span{pid: pid, track: track, name: name, start: m.start, dur: m.dur, n: m.n})
	}
	*m = merged{}
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every recorded span to path, timestamps relative to the
// earliest span, with process and thread names as metadata events.
func (r *recorder) writeChrome(path string, procNames map[int]string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var epoch time.Time
	if len(spans) > 0 {
		epoch = spans[0].start
	}
	type key struct {
		pid   int
		track string
	}
	tids := map[key]int{}
	var events []traceEvent
	for pid, name := range procNames {
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}})
	}
	for _, s := range spans {
		k := key{s.pid, s.track}
		tid, ok := tids[k]
		if !ok {
			tid = len(tids) + 1
			tids[k] = tid
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: s.pid, Tid: tid,
				Args: map[string]any{"name": s.track}})
		}
		ev := traceEvent{Name: s.name, Ph: "X", Pid: s.pid, Tid: tid,
			Ts:  float64(s.start.Sub(epoch)) / 1e3,
			Dur: float64(s.dur) / 1e3}
		if s.n > 1 {
			ev.Args = map[string]any{"calls": s.n}
		}
		events = append(events, ev)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
