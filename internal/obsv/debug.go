package obsv

import (
	"encoding/json"
	"net"
	"net/http"
	"time"
)

// DebugConfig configures an opt-in debug listener. Zero fields disable
// the corresponding routes: a nil Registry 404s /metrics and
// /metrics.json, a nil Tracer 404s /debug/trace, a nil Split 404s
// /debug/split.
type DebugConfig struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0"). Required.
	Addr string
	// Registry backs /metrics (Prometheus text) and /metrics.json.
	Registry *Registry
	// Tracer backs /debug/trace (JSON lines, oldest first).
	Tracer *Tracer
	// Split produces the /debug/split snapshot: the live endpoint table
	// with UG/PSE statistics, active plans, breaker states and the last
	// min-cut explanation. Called per request; must be safe for concurrent
	// use with normal endpoint operation.
	Split func() []EndpointStatus
}

// DebugServer is a running debug listener. It serves:
//
//	/metrics       Prometheus text exposition (version 0.0.4)
//	/metrics.json  the same samples as JSON
//	/debug/split   the live split table as JSON (see EndpointStatus)
//	/debug/trace   the retained trace ring as JSON lines
//	/debug/pprof/  the Go runtime profiles and execution trace, always on;
//	               served from this listener only (see handlePprof)
//
// The listener is plain HTTP intended for loopback or otherwise trusted
// interfaces; it exposes internal state and has no authentication.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartDebug binds cfg.Addr and serves the debug routes until Close.
func StartDebug(cfg DebugConfig) (*DebugServer, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	if cfg.Registry != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = cfg.Registry.WritePrometheus(w)
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = cfg.Registry.WriteJSON(w)
		})
	}
	if cfg.Split != nil {
		mux.HandleFunc("/debug/split", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(splitReply{Endpoints: cfg.Split()})
		})
	}
	if cfg.Tracer != nil {
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = cfg.Tracer.WriteJSON(w)
		})
	}
	handlePprof(mux)
	s := &DebugServer{
		ln:  ln,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// splitReply is the /debug/split envelope.
type splitReply struct {
	Endpoints []EndpointStatus `json:"endpoints"`
}

// Addr returns the bound listen address (useful with ":0").
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *DebugServer) Close() error { return s.srv.Close() }
