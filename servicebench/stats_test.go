package main

import (
	"math/rand"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// TestPercentileRule pins the reporting rule: a percentile is reported only
// when at least ten samples lie beyond it.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{100, 0.90, true, 90},
		{99, 0.90, false, 0},
		{20, 0.50, true, 10},
		{19, 0.50, false, 0},
		{0, 0.50, false, 0},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSegmentedPercentile(t *testing.T) {
	// Five segments of 1,000: a stall confined to one segment moves that
	// segment's p99 but not the median of the five.
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 100; i++ {
		xs[i] = 50
	}
	if got, ok := segmentedPercentile(xs, 0.99); !ok || got != 1 {
		t.Errorf("segmented p99 with one stalled segment = %v, %v; want 1, true", got, ok)
	}
	if got, ok := percentile(xs, 0.99); !ok || got != 50 {
		t.Errorf("pooled p99 = %v, %v; want the stall, 50", got, ok)
	}
	// Fewer samples than one segment needs: omitted.
	if _, ok := segmentedPercentile(xs[:999], 0.99); ok {
		t.Error("segmented p99 over 999 samples reported; want omitted")
	}
	// Between one and two segments' worth: one segment, the pooled value.
	ys := seq(150)
	got, ok := segmentedPercentile(ys, 0.90)
	if want, _ := percentile(ys, 0.90); !ok || got != want {
		t.Errorf("segmented p90 over 150 samples = %v, %v; want the pooled %v", got, ok, want)
	}
}

func TestDueTimes(t *testing.T) {
	// 32-line batches at 10,000 records/s are due every 3.2 ms.
	for i, want := range []time.Duration{0, 3200 * time.Microsecond, 6400 * time.Microsecond} {
		if got := dueOffset(i, 32, 10000); got != want {
			t.Errorf("dueOffset(%d, 32, 10000) = %v, want %v", i, got, want)
		}
	}
	// Computed from the index, never accumulated: batch 30,000 of 5 at 750
	// records/s is due at exactly 200 s, however many intervals precede it.
	if got := dueOffset(30000, 5, 750); got != 200*time.Second {
		t.Errorf("dueOffset(30000, 5, 750) = %v, want 200s", got)
	}
}

func TestLateness(t *testing.T) {
	due := time.Unix(100, 0)
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early send is %v late, want 0", got)
	}
	if got := lateness(due, due); got != 0 {
		t.Errorf("on-time send is %v late, want 0", got)
	}
	if got := lateness(due, due.Add(1500*time.Microsecond)); got != 1500*time.Microsecond {
		t.Errorf("late send is %v late, want 1.5ms", got)
	}
}

func TestPacerNeverEarly(t *testing.T) {
	var p pacer
	start := time.Now()
	for i := 1; i <= 20; i++ {
		due := start.Add(dueOffset(i, 1, 1000))
		p.wait(due)
		if now := time.Now(); now.Before(due) {
			t.Fatalf("wait returned %v before due", due.Sub(now))
		}
	}
}
