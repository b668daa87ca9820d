//go:build race

package wal

// raceEnabled reports that this binary was built with -race: the race
// detector's shadow allocations would fail the allocation pin tests, which
// guard performance, not safety — the -race CI step runs the identity suites
// instead.
const raceEnabled = true
