// Package scrape serves a live telemetry plane over HTTP. It is the one
// package in the tree that imports net/http, so only the commands that
// serve (cmd/faultcamp and cmd/difftest, for -serve) link it; a binary
// that runs campaigns without serving them does not.
package scrape

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"ticktock/internal/metrics"
	"ticktock/internal/telemetry"
	"ticktock/internal/trace"
)

// Server is the opt-in HTTP scrape surface over a telemetry.Plane:
//
//	/metrics  — the live streaming-aggregated registry, Prometheus text
//	/progress — the Progress JSON snapshot
//	/healthz  — liveness ("ok")
//	/timeline — the fleet Chrome trace so far
//	/debug/pprof/ — the host Go runtime's profiles (net/http/pprof)
//
// Endpoints are read-only snapshots and safe to poll while the
// campaign runs. The pprof handlers are mounted on the server's own
// mux. Importing net/http/pprof also registers them on
// http.DefaultServeMux, but nothing here serves that mux, so a host
// profile is reachable only through a running Server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (e.g. "127.0.0.1:0") and serves the plane's scrape
// endpoints until Close.
func Serve(addr string, p *telemetry.Plane) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		_ = p.Live().ExportPrometheus(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p.Progress())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/timeline", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = trace.ExportFleetChromeJSON(w, p.Timeline())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Watch sets up a campaign command's -serve and -progress: a plane
// (nil when neither is asked for), served on addr if it is non-empty
// with the bound address printed to stderr, and a progress ticker on
// stderr if progress is set. Call stop once the campaign returns,
// before printing its report.
func Watch(addr string, progress bool, stderr io.Writer) (plane *telemetry.Plane, stop func(), err error) {
	if addr == "" && !progress {
		return nil, func() {}, nil
	}
	plane = telemetry.New()
	var srv *Server
	if addr != "" {
		if srv, err = Serve(addr, plane); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "telemetry: serving http://%s\n", srv.Addr())
	}
	var tty *telemetry.TTY
	if progress {
		tty = telemetry.StartTTY(stderr, plane, 0)
	}
	return plane, func() {
		tty.Stop()
		srv.Close()
	}, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server. Nil-safe.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
