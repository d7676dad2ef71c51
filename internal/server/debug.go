// The debug surfaces. /debug/events dumps the wide-event ring as JSON
// with exact-match and latency filters; it lives on the root mux (it must
// answer during overload, when shedding is on) but inside the metrics
// middleware, so reading it is itself a traced, labeled operation. The
// opt-in debug listener serves net/http/pprof plus a /metrics scrape on a
// separate address (`nvbench -debug-addr`), so profiling endpoints are
// never exposed on the benchmark-serving port and never pass through the
// shed/timeout chain — a profiler under overload is exactly when you need
// the debug port to answer.

package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"nvbench/internal/obs"
)

// maxDebugEvents caps one /debug/events response; the ring holds at most
// its capacity anyway, this just bounds a huge-capacity deployment.
const maxDebugEvents = 4096

// debugEventsPage is the JSON shape of /debug/events.
type debugEventsPage struct {
	Total  uint64      `json:"total"`  // events ever emitted
	Count  int         `json:"count"`  // events in this response
	Events []obs.Event `json:"events"` // oldest first
}

// handleDebugEvents serves the retained wide events, oldest first,
// filterable with exact-match query parameters — op=, route= (the event
// site), outcome=, layer= — and min_ms= for a latency floor.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := obs.EventFilter{
		Op:      q.Get("op"),
		Layer:   q.Get("layer"),
		Site:    q.Get("route"),
		Outcome: q.Get("outcome"),
	}
	if ms := q.Get("min_ms"); ms != "" {
		v, err := strconv.ParseFloat(ms, 64)
		// ParseFloat accepts NaN, inf and 1e300; none of them converts to a
		// Duration, and the wrapped floor would match every event.
		ns := v * float64(time.Millisecond)
		if err != nil || v < 0 || math.IsNaN(ns) || ns >= math.MaxInt64 {
			http.Error(w, fmt.Sprintf("bad min_ms %q: want a non-negative number", ms), http.StatusBadRequest)
			return
		}
		f.MinDur = time.Duration(ns)
	}
	rec := s.cfg.Obs.Events
	events := rec.Events(f)
	if len(events) > maxDebugEvents {
		events = events[len(events)-maxDebugEvents:]
	}
	if events == nil {
		events = []obs.Event{}
	}
	writeJSON(s, w, debugEventsPage{Total: rec.Total(), Count: len(events), Events: events})
}

// NewDebugMux builds the debug handler: the standard pprof surface under
// /debug/pprof/ and the registry (obs.Default when nil) under /metrics.
func NewDebugMux(reg *obs.Registry) *http.ServeMux {
	if reg == nil {
		reg = obs.Default
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			// Mid-stream failure: the scraper went away; nothing to answer.
			return
		}
	})
	return mux
}

// RunDebug serves the debug mux on addr until ctx is canceled. Errors are
// returned, not fatal — a debug listener that cannot bind must not take
// the benchmark server down with it.
func RunDebug(ctx context.Context, addr string, reg *obs.Registry) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           NewDebugMux(reg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return srv.Shutdown(shutCtx)
}
