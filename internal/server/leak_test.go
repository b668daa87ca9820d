package server

// Goroutine hygiene: a full stream lifecycle — create, ingest, close,
// delete, shutdown — must return the process to its baseline goroutine
// count. Supervisors own their pipeline runs and join each run's stages
// before the next; anything left running here is a leak that would
// accumulate per stream in a long-lived server.

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv := New(Options{DataDir: t.TempDir()})
	for _, id := range []string{"a", "b", "c"} {
		cfg := testConfig(id, 1)
		cfg.CheckpointEvery = 1
		if _, err := srv.Create(cfg); err != nil {
			t.Fatal(err)
		}
		st := srv.get(id)
		if _, _, err := st.ingest(strings.NewReader(genInput(t, 50, 300)), -1); err != nil {
			t.Fatal(err)
		}
	}
	// One stream is deleted mid-flight; the others drain gracefully.
	if err := srv.Delete("c"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if _, err := srv.CloseIngest(id); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep := srv.Shutdown(ctx)
	if !rep.Clean {
		t.Fatalf("shutdown not clean: %+v", rep)
	}

	// Goroutines unwind asynchronously after Shutdown returns; poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+1 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	var buf strings.Builder
	pprof.Lookup("goroutine").WriteTo(&buf, 1)
	t.Fatalf("goroutines: %d, baseline %d; leaked stacks:\n%s",
		runtime.NumGoroutine(), baseline, buf.String())
}
