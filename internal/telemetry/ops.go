package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// HandlerWithPostmortem builds the ops endpoint mux over the given
// registries:
//
//	/metrics            Prometheus text exposition (all registries merged)
//	/healthz            JSON liveness: status, uptime, metric counts
//	/debug/pprof/       the standard runtime profiles
//	/debug/postmortem   the flight recorder's incident index, and
//	                    /debug/postmortem/<seq> one report, fed from pm
//	                    (a nil pm serves an empty index)
//
// Multiple registries cover the common deployment shape: the
// process-wide Default (synthesis spans) plus per-subsystem registries
// (a soak's simulator histograms, a controller's deploy counters).
// Same-name metrics across registries are summed at scrape time.
func HandlerWithPostmortem(pm PostmortemSource, regs ...*Registry) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	servePostmortem(mux, pm)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		merged := NewRegistry()
		for _, reg := range regs {
			merged.Merge(reg.Snapshot())
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, merged.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		var counters, gauges, hists int
		for _, reg := range regs {
			s := reg.Snapshot()
			counters += len(s.Counters)
			gauges += len(s.Gauges)
			hists += len(s.Hists)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":     "ok",
			"uptime":     time.Since(start).String(),
			"counters":   counters,
			"gauges":     gauges,
			"histograms": hists,
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// OpsServer is a running ops endpoint.
type OpsServer struct {
	srv *http.Server
	lis net.Listener
}

// StartOps listens on addr (e.g. ":8080" or "127.0.0.1:0") and serves
// the ops endpoint in a background goroutine. It returns once the
// listener is bound, so the caller can print Addr() and curl it
// immediately.
func StartOps(addr string, regs ...*Registry) (*OpsServer, error) {
	return StartOpsWithPostmortem(addr, nil, regs...)
}

// StartOpsWithPostmortem is StartOps serving the forensics routes too.
func StartOpsWithPostmortem(addr string, pm PostmortemSource, regs ...*Registry) (*OpsServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: ops listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: HandlerWithPostmortem(pm, regs...)}
	go srv.Serve(lis) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return &OpsServer{srv: srv, lis: lis}, nil
}

// Addr returns the bound listen address.
func (o *OpsServer) Addr() string { return o.lis.Addr().String() }

// Close shuts the server down.
func (o *OpsServer) Close() error { return o.srv.Close() }
