package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestCounterParallel hammers one counter from many goroutines; under
// -race this doubles as the lock-freedom proof for the hot path.
func TestCounterParallel(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_hits_total", "hits", nil)
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestGaugeParallel: concurrent Add must not lose updates (CAS loop).
func TestGaugeParallel(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test_level", "level", nil)
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	g.Set(-2.5)
	if got := g.Value(); got != -2.5 {
		t.Fatalf("gauge after Set = %v, want -2.5", got)
	}
}

// TestHistogramParallel: concurrent observations keep count == Σ buckets
// and an exact sum for integer-valued observations.
func TestHistogramParallel(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_seconds", "latency", []float64{1, 2, 4}, nil)
	const workers, perWorker = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w % 5)) // 0..4 spans every bucket incl. +Inf is unused
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	wantSum := 0.0
	for w := 0; w < workers; w++ {
		wantSum += float64(w%5) * perWorker
	}
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	_, cum := h.Buckets()
	if cum[len(cum)-1] > h.Count() {
		t.Fatalf("cumulative bucket %d exceeds count %d", cum[len(cum)-1], h.Count())
	}
}

// TestHistogramBucketBoundaries pins the `le` semantics: a value equal to
// an upper bound lands in that bucket (inclusive), just above it in the
// next, and beyond the last bound only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_bounds", "", []float64{0.1, 1, 10}, nil)
	for _, v := range []float64{0.05, 0.1, 0.1000001, 1, 5, 10, 11, math.Inf(1)} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if want := []float64{0.1, 1, 10}; !reflect.DeepEqual(bounds, want) {
		t.Fatalf("bounds = %v, want %v", bounds, want)
	}
	// le=0.1: {0.05, 0.1}; le=1: +{0.1000001, 1}; le=10: +{5, 10}; +Inf: +{11, Inf}.
	if want := []uint64{2, 4, 6}; !reflect.DeepEqual(cum, want) {
		t.Fatalf("cumulative = %v, want %v", cum, want)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
}

func TestHistogramRejectsBadBuckets(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing buckets accepted")
		}
	}()
	reg.Histogram("test_bad", "", []float64{1, 1}, nil)
}

// TestRegistryIdempotentAndConflicts: same (name, labels, type) returns the
// SAME instrument; same name under a different type panics.
func TestRegistryIdempotentAndConflicts(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("test_total", "", Labels{"op": "x"})
	b := reg.Counter("test_total", "", Labels{"op": "x"})
	if a != b {
		t.Fatal("re-registration returned a different instrument")
	}
	if c := reg.Counter("test_total", "", Labels{"op": "y"}); c == a {
		t.Fatal("distinct labels shared an instrument")
	}
	a.Add(3)
	reg.Counter("test_total", "", Labels{"op": "y"}).Add(4)
	if got := reg.CounterValue("test_total"); got != 7 {
		t.Fatalf("CounterValue = %d, want 7 (summed across series)", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type conflict accepted")
		}
	}()
	reg.Gauge("test_total", "", nil)
}

// TestDropLabel: dropping stream=a removes exactly the series carrying that
// pair, across families and whatever other labels they have; a later
// registration of the same series starts from zero.
func TestDropLabel(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("recs_total", "", Labels{"stream": "a"}).Add(5)
	reg.Counter("recs_total", "", Labels{"stream": "ab"}).Add(6)
	reg.Gauge("depth", "", Labels{"stream": "a", "shard": "1"}).Set(2)
	reg.GaugeFunc("age", "", Labels{"stream": "a"}, func() float64 { return 9 })
	reg.Gauge("depth", "", Labels{"other": "a"}).Set(3)
	reg.Counter("plain_total", "", nil).Inc()

	reg.DropLabel("stream", "a")
	var got []string
	for _, f := range reg.Snapshot() {
		for _, s := range f.Series {
			got = append(got, f.Name+s.Labels)
		}
	}
	want := []string{`depth{other="a"}`, `plain_total`, `recs_total{stream="ab"}`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("series after dropping stream=a: %q, want %q", got, want)
	}
	if names := reg.Names(); !reflect.DeepEqual(names, []string{"age", "depth", "plain_total", "recs_total"}) {
		t.Errorf("names after the drop: %q, want every family kept", names)
	}
	if v := reg.Counter("recs_total", "", Labels{"stream": "a"}).Value(); v != 0 {
		t.Errorf("re-registered counter starts at %d, want 0", v)
	}
}

// buildFixtureRegistry populates a registry with one of each instrument
// kind, labeled and unlabeled, with deterministic values — shared by the
// golden-file and JSON tests.
func buildFixtureRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("app_requests_total", "Requests served.", Labels{"code": "200"}).Add(17)
	reg.Counter("app_requests_total", "Requests served.", Labels{"code": "500"}).Add(2)
	reg.Gauge("app_temperature_celsius", "Current temperature.", nil).Set(36.6)
	h := reg.Histogram("app_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1}, nil)
	for _, v := range []float64{0.005, 0.02, 0.02, 0.5, 3} {
		h.Observe(v)
	}
	return reg
}

// TestWritePrometheusGolden diffs the text exposition against the checked
// in golden file (regenerate with -update).
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixtureRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("prometheus text drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestWriteJSON round-trips the snapshot through encoding/json and spot
// checks structure and values.
func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixtureRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var fams []FamilySnapshot
	if err := json.Unmarshal(buf.Bytes(), &fams); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(fams) != 3 {
		t.Fatalf("got %d families, want 3", len(fams))
	}
	byName := map[string]FamilySnapshot{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if got := byName["app_requests_total"]; len(got.Series) != 2 || got.Series[0].Value+got.Series[1].Value != 19 {
		t.Errorf("counter family wrong: %+v", got)
	}
	if h := byName["app_latency_seconds"].Series[0]; h.Count != 5 || h.Sum != 3.545 {
		t.Errorf("histogram snapshot wrong: %+v", h)
	}
}

// TestSnapshotWhileWriting: snapshots taken concurrently with updates must
// be internally sane (no torn reads under -race).
func TestSnapshotWhileWriting(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "", nil)
	h := reg.Histogram("test_seconds", "", nil, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			c.Inc()
			h.Observe(0.001)
		}
	}()
	for i := 0; i < 50; i++ {
		for _, f := range reg.Snapshot() {
			for _, s := range f.Series {
				if f.Type == TypeHistogram && len(s.Cumulative) > 0 &&
					s.Cumulative[len(s.Cumulative)-1] > s.Count {
					t.Fatalf("cumulative > count in concurrent snapshot: %+v", s)
				}
			}
		}
	}
	<-done
}

// TestMuxEndpoints drives the exposition mux end to end: /metrics serves
// the text format, /debug/vars the JSON snapshot, /debug/pprof/ the pprof
// index.
func TestMuxEndpoints(t *testing.T) {
	reg := buildFixtureRegistry()
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()
	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}
	if body, ct := get("/metrics"); !strings.Contains(body, "app_requests_total{code=\"200\"} 17") ||
		!strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics wrong (ct %q):\n%s", ct, body)
	}
	if body, ct := get("/debug/vars"); !strings.Contains(body, "\"app_latency_seconds\"") ||
		!strings.Contains(ct, "application/json") {
		t.Errorf("/debug/vars wrong (ct %q):\n%s", ct, body)
	}
	if body, _ := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index wrong:\n%s", body)
	}
}

// TestMuxMethodNotAllowed: the read-only endpoints answer a wrong-method
// hit with 405 + Allow, not a misleading 404 — a scraper misconfigured to
// POST sees its actual mistake.
func TestMuxMethodNotAllowed(t *testing.T) {
	reg := buildFixtureRegistry()
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/vars"} {
		resp, err := srv.Client().Post(srv.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("POST %s: Allow %q, want GET", path, allow)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0: "0", 17: "17", -3: "-3", 0.25: "0.25",
		math.Inf(1): "+Inf", math.Inf(-1): "-Inf",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}
