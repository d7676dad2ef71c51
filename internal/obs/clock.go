// Package obs is the repo's stdlib-only observability layer: a concurrent
// metrics registry (counters, gauges, fixed-bucket latency histograms with
// snapshot and quantile support, Prometheus text exposition), wide events
// with one record per timed operation (renderable as a Chrome trace-event
// file), and a structured key=value logger — all behind an injectable
// Clock.
//
// The clock rule is the package's contract with the determinism gate:
// internal/obs is the only sanctioned home of time.Now in this module (the
// detrand analyzer enforces it). Every other layer that needs wall-clock
// durations — the synthesis pipeline, the store, the HTTP server — takes an
// injected Clock, so deterministic packages stay deterministic and tests
// can drive time by hand. Metrics and events flow only into the registry,
// the event ring and the trace file, never into synthesized artifacts, so
// an instrumented build is byte-identical to a bare one.
package obs

import (
	"sync"
	"time"
)

// Clock abstracts wall-clock reads so instrumented packages never touch
// time.Now themselves. Implementations must be safe for concurrent use.
type Clock interface {
	Now() time.Time
}

// RealClock reads the process wall clock. This type is the only sanctioned
// call site of time.Now in the module; everything else injects a Clock.
type RealClock struct{}

// Now returns the current wall-clock time.
func (RealClock) Now() time.Time { return time.Now() }

// ManualClock is a hand-driven Clock for tests and golden outputs: Now
// returns the configured instant, optionally auto-advancing by a fixed
// step per read so successive reads are strictly ordered without any real
// time passing.
type ManualClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

// NewManualClock returns a clock frozen at start; advance it with Advance.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// NewTickingClock returns a clock that starts at start and advances by
// step on every Now call — deterministic, strictly increasing timestamps
// for golden trace and metrics tests.
func NewTickingClock(start time.Time, step time.Duration) *ManualClock {
	return &ManualClock{now: start, step: step}
}

// Now returns the clock's current instant, then applies the per-read step.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}
