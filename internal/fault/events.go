// Wide-event bridge: with instruments installed, every call where some
// injection fires is one fault-layer timed operation naming the site and
// the kind that fired, stamped at the call's start and lasting the delay
// it slept. Clean pass-throughs record nothing — fault events record
// interference, not traffic (the calls counter already counts traffic).

package fault

import (
	"context"
	"sync/atomic"
	"time"

	"nvbench/internal/obs"
)

// instrument holds the process-wide instruments, matching the
// process-wide plan: injection is global, so its event stream is too.
var instrument atomic.Pointer[obs.Instruments]

// Instrument installs process-wide instruments for fired injections and
// returns a restore function that reinstates the previous value — tests
// defer it. Passing nil disables fault events.
func Instrument(in *obs.Instruments) (restore func()) {
	prev := instrument.Swap(in)
	return func() { instrument.Store(prev) }
}

// interfere sleeps for delay inside one fault-layer timed operation at
// site under ctx's op ID (empty for a plain Inject), so the event starts
// before the delay and lasts as long.
func interfere(ctx context.Context, site, kind string, delay time.Duration) {
	t := instrument.Load().Begin(ctx, obs.LayerFault, site)
	time.Sleep(delay)
	t.End("fault", "kind", kind)
}
