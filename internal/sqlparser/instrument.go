// Observability hook: the parser is called deep inside corpus generation
// (spider.Generate) where threading an Instruments value through every
// call chain would touch a dozen signatures for one timed stage. Instead a
// process-wide instrument pointer — the same pattern as fault.Activate —
// times each TryParse as a bench-layer sqlparse operation, with no op ID,
// when installed.

package sqlparser

import (
	"sync/atomic"

	"nvbench/internal/obs"
)

var instrument atomic.Pointer[obs.Instruments]

// Instrument installs process-wide instruments for parser timings and
// returns a restore function that reinstates the previous value — tests
// defer it. Passing nil disables parser instrumentation.
func Instrument(in *obs.Instruments) (restore func()) {
	prev := instrument.Swap(in)
	return func() { instrument.Store(prev) }
}
