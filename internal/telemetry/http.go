package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Endpoint is an extra route mounted on a debug mux — the hook for layers
// above telemetry (the event log's /events.jsonl, the monitor's
// /health.json) to join the same -debug-addr server without this package
// importing them.
type Endpoint struct {
	Pattern string
	Handler http.Handler
}

// NewDebugMux builds the handler tree served at a -debug-addr endpoint:
//
//	/metrics         Prometheus text exposition of reg
//	/telemetry.json  the full Dump (metrics + finished spans) as JSON
//	/trace.json      the finished spans as Chrome trace_event JSON
//	/debug/pprof/…   the standard net/http/pprof profiles
//
// plus any extra endpoints. Either of reg/tr may be nil (its endpoints
// serve empty data); /metrics includes the tracer's self-health gauges.
func NewDebugMux(reg *Registry, tr *Tracer, extras ...Endpoint) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, AppendTracerHealth(reg.Snapshot(), tr))
	})
	mux.HandleFunc("/telemetry.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		Collect(reg, tr).WriteJSON(w)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteChromeTrace(w, tr.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, ep := range extras {
		if ep.Pattern != "" && ep.Handler != nil {
			mux.Handle(ep.Pattern, ep.Handler)
		}
	}
	return mux
}

// DebugServer is a running debug endpoint.
type DebugServer struct {
	// Addr is the bound address (useful when the caller asked for :0).
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// StartDebugServer binds addr and serves NewDebugMux(reg, tr, extras...) in
// a background goroutine. Callers own the returned server's lifetime.
func StartDebugServer(addr string, reg *Registry, tr *Tracer, extras ...Endpoint) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug endpoint: %w", err)
	}
	srv := &http.Server{Handler: NewDebugMux(reg, tr, extras...)}
	go srv.Serve(ln)
	return &DebugServer{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}
