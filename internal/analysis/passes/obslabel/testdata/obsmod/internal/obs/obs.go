// Fixture mini-registry: the L helper, a Registry, and a RegisterBase that
// forgets one histogram constant.
package obs

// Canonical metric names.
const (
	GoodSeconds = "nvbench_good_seconds"
	LostSeconds = "nvbench_lost_seconds" // want `histogram constant LostSeconds \(nvbench_lost_seconds\) is not pre-registered in RegisterBase`
	DoneTotal   = "nvbench_done_total"
)

// L builds a labeled series name.
func L(base string, kv ...string) string {
	_ = kv
	return base
}

// Registry is a minimal metric factory.
type Registry struct{}

// Counter returns a counter handle.
func (r *Registry) Counter(name string) int { _ = name; return 0 }

// Gauge returns a gauge handle.
func (r *Registry) Gauge(name string) int { _ = name; return 0 }

// Histogram returns a histogram handle.
func (r *Registry) Histogram(name string) int { _ = name; return 0 }

// ObserveEx records one value with an exemplar op ID.
func (r *Registry) ObserveEx(name string, v float64, op string) { _, _, _ = name, v, op }

// RegisterBase pre-creates the canonical series at zero.
func RegisterBase(r *Registry) {
	r.Histogram(GoodSeconds)
	r.Counter(DoneTotal)
}

// Timing is one timed operation in flight.
type Timing struct{}

// End closes the operation with one wide event; kv holds alternating field
// keys and values.
func (t *Timing) End(outcome string, kv ...string) { _, _ = outcome, kv }
