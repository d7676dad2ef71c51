// Request outcome tagging. The hardening layers all answer overload and
// failure with similar statuses (shed and timeout are both 503), so logs
// and counters could not tell them apart. Each request now carries a
// first-wins outcome holder in its context: the layer that decides the
// request's fate (shed, timeout, injected fault, panic) records it, and
// the metrics middleware consumes it for both the per-route counters and
// the structured log line. Requests no layer claims are classified from
// their status code.

package server

import (
	"context"
	"net/http"
	"sync/atomic"
)

// Outcome labels attached to nvbench_http_requests_total and log lines.
const (
	outcomeOK          = "ok"           // 2xx/3xx, no layer intervened
	outcomeClientError = "client_error" // 4xx from a handler
	outcomeError       = "error"        // 5xx from a handler
	outcomeShed        = "shed"         // rejected at the in-flight ceiling
	outcomeTimeout     = "timeout"      // deadline fired before the handler finished
	outcomeFault       = "fault"        // injected fault answered the request
	outcomePanic       = "panic"        // handler panicked; recovery answered
)

// outcomes lists every outcome label, for the request-counter series the
// server names once at construction.
var outcomes = []string{outcomeOK, outcomeClientError, outcomeError, outcomeShed, outcomeTimeout, outcomeFault, outcomePanic}

// outcomeHolder is a first-wins outcome slot: the layer closest to the
// cause records first and later classifications cannot overwrite it.
type outcomeHolder struct {
	v atomic.Pointer[string]
}

func (o *outcomeHolder) set(outcome string) {
	if o == nil {
		return
	}
	o.v.CompareAndSwap(nil, &outcome)
}

func (o *outcomeHolder) get() string {
	if o == nil {
		return ""
	}
	if p := o.v.Load(); p != nil {
		return *p
	}
	return ""
}

type outcomeKey struct{}

// withOutcome attaches a fresh holder to the request context.
func withOutcome(r *http.Request, o *outcomeHolder) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), outcomeKey{}, o))
}

// outcomeOf returns the request's holder (nil when the metrics middleware
// is not in the chain).
func outcomeOf(r *http.Request) *outcomeHolder {
	o, _ := r.Context().Value(outcomeKey{}).(*outcomeHolder)
	return o
}

// classifyStatus maps a response status to an outcome label for requests
// no hardening layer claimed.
func classifyStatus(status int) string {
	switch {
	case status >= 500:
		return outcomeError
	case status >= 400:
		return outcomeClientError
	default:
		return outcomeOK
	}
}

// statusRecorder captures the response status for outcome classification
// and counts the body bytes written, for the request's wide event.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
	bytes int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code, r.wrote = code, true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.code, r.wrote = http.StatusOK, true
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// status returns the recorded status (200 when the handler wrote nothing,
// matching net/http's implicit header).
func (r *statusRecorder) status() int {
	if !r.wrote {
		return http.StatusOK
	}
	return r.code
}
