// The hardening middleware chain: panic recovery, per-request timeout
// with context propagation, concurrency-limited load shedding, and the
// fault-injection hook that lets the chaos tests drive all three.

package server

import (
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"nvbench/internal/fault"
	"nvbench/internal/obs"
)

// withRecover converts handler panics into 500 responses and keeps the
// connection (and the process) alive. http.ErrAbortHandler passes through
// — it is net/http's own sanctioned abort signal.
func (s *Server) withRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			log.Printf("server: panic serving %s %s: %v", r.Method, r.URL.Path, p)
			// Best effort: if the response has not started, this is a
			// clean 500; mid-stream, net/http closes the connection.
			http.Error(w, "internal server error", http.StatusInternalServerError)
		}()
		next.ServeHTTP(w, r)
	})
}

// withTimeout bounds one request end to end. The wrapped handler sees a
// context that is canceled at the deadline, and a request that exceeds it
// gets 503 — buffered writes from the late handler are discarded, never
// interleaved (http.TimeoutHandler semantics). A fired deadline tags the
// request's outcome "timeout", which is what lets logs and counters tell
// a timeout 503 from a shed 503.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// finished flips when the inner handler completes; TimeoutHandler
		// runs it on its own goroutine, so if ServeHTTP returns first the
		// deadline fired and the 503 on the wire is a timeout.
		var finished atomic.Bool
		inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer finished.Store(true)
			next.ServeHTTP(w, r)
		})
		http.TimeoutHandler(inner, s.cfg.RequestTimeout, "request timed out\n").ServeHTTP(w, r)
		if !finished.Load() {
			outcomeOf(r).set(outcomeTimeout)
			s.cfg.Obs.Inc(obs.HTTPTimeouts)
		}
	})
}

// withShed rejects work beyond the concurrent-request ceiling with 503 +
// Retry-After instead of queueing without bound. Saturation answers in
// microseconds, which is what keeps the pool drainable under overload.
func (s *Server) withShed(next http.Handler) http.Handler {
	if s.cfg.MaxInFlight <= 0 {
		return next
	}
	sem := make(chan struct{}, s.cfg.MaxInFlight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, r)
		default:
			outcomeOf(r).set(outcomeShed)
			s.cfg.Obs.Inc(obs.HTTPShed)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server overloaded, retry later", http.StatusServiceUnavailable)
		}
	})
}

// injectFaults is the server's registered fault site. Error-kind
// injections answer 500 directly (handlers have no error channel to
// propagate through); panic- and latency-kind injections pass through the
// real recovery and timeout layers above. A fired injection's event
// carries the request's op ID.
func (s *Server) injectFaults(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := fault.InjectContext(r.Context(), fault.SiteServer); err != nil {
			outcomeOf(r).set(outcomeFault)
			http.Error(w, "injected fault", http.StatusInternalServerError)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// routeLabel folds a request path into a bounded route set, so per-route
// series cannot grow with entry IDs (or attacker-chosen paths).
func routeLabel(path string) string {
	switch {
	case path == "/":
		return "/"
	case path == "/api/entries":
		return "/api/entries"
	case path == "/api/query":
		return "/api/query"
	case path == "/debug/events":
		return "/debug/events"
	case strings.HasPrefix(path, "/api/entry/"):
		if strings.HasSuffix(path, "/vega") {
			return "/api/entry/:id/vega"
		}
		return "/api/entry/:id"
	case strings.HasPrefix(path, "/entry/"):
		return "/entry/:id"
	default:
		return "other"
	}
}

// withMetrics is the outermost layer of the app chain (inside only panic
// recovery): per-route request counters with outcome labels, latency
// histograms with the request's op ID as the bucket exemplar, the
// in-flight gauge, and one wide event per request. Every request gets an
// operation ID here — an inbound X-Request-ID is kept when well-formed,
// otherwise one is minted — echoed on the response and threaded through
// the context so inner layers' events join to it. Every request also gets
// an outcome holder; inner layers claim theirs (shed, timeout, fault) and
// the rest classify by status. Non-ok outcomes also emit one structured
// log line.
func (s *Server) withMetrics(next http.Handler) http.Handler {
	in := s.cfg.Obs
	if in == nil || in.Metrics == nil {
		return next
	}
	inFlight := in.Metrics.Gauge(obs.HTTPInFlight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeLabel(r.URL.Path)
		op := obs.SanitizeOpID(r.Header.Get("X-Request-ID"))
		if op == "" {
			op = s.ids.Next()
		}
		r = r.WithContext(obs.WithOpID(r.Context(), op))
		w.Header().Set("X-Request-ID", op)
		oc := &outcomeHolder{}
		r = withOutcome(r, oc)
		rec := &statusRecorder{ResponseWriter: w}
		inFlight.Inc()
		t := in.Begin(r.Context(), obs.LayerHTTP, route)
		finished := false
		defer func() {
			inFlight.Dec()
			if !finished {
				// Unwinding through a panic: recovery above answers 500.
				oc.set(outcomePanic)
			}
			outcome := oc.get()
			if outcome == "" {
				outcome = classifyStatus(rec.status())
			}
			in.Inc(s.requestSeries[requestKey{route, outcome}])
			t.End(outcome,
				"method", r.Method,
				"status", strconv.Itoa(rec.status()),
				"bytes", strconv.FormatInt(rec.bytes, 10))
			if outcome != outcomeOK {
				in.Logf("request", "method", r.Method, "path", r.URL.Path,
					"route", route, "status", rec.status(), "outcome", outcome, "op", op)
			}
		}()
		next.ServeHTTP(rec, r)
		finished = true
	})
}
