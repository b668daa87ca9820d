package main

import (
	"testing"
)

// TestSmoke runs every workload end to end at a reduced size — one set-up,
// about a second per phase — and requires the oracle to pass with every
// end-to-end metric it can support reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and runs the pipeline")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := bench(w, 5, 1.5, false, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
			}
			for _, name := range []string{"setup_s", "recovery_s", "live_heap_mb", "window_lag_p50_ms"} {
				if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("metric %s = %+v, %v; want a positive value", name, m, ok)
				}
			}
		})
	}
}

// TestSmokeTraced runs the per-layer pass on the cheaper workload: the
// traced server run, the layer replay, the γ sweep and the Fig. 8 probe.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and runs the pipeline")
	}
	w, err := workloadByName("optimizer-heavy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench(w, 6, 1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
	}
	for _, name := range []string{"records_per_s", "moment.snapshot_ms_per_window", "core.bias_opt_ms_per_window",
		"wal.sync_ms_p50", "checkpoint.full_save_ms", "core.bias_opt_ms.gamma4", "fig8.moment_share", "trace.coverage",
		"live.ingest_p50_ms"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
}
