package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
)

// DebugMux builds the debug HTTP mux over one engine's registry m, shared
// by every serena process that exposes an observability endpoint (the PEMS
// metrics server, pemsd's -debug listener). Routes:
//
//	/metrics        m's exposition: JSON snapshot by default;
//	                Prometheus/OpenMetrics text when the request asks for
//	                it (?format=prometheus, or an Accept header naming
//	                application/openmetrics-text or text/plain)
//	/debug/serena   human-readable status written by the status callback
//	/debug/vars     the standard library's expvar JSON (memstats, cmdline)
//	/debug/pprof/*  net/http/pprof profiles (explicitly wired: this is a
//	                private mux, not http.DefaultServeMux)
//
// extra mounts additional handlers by path (e.g. /debug/trace); a nil
// status yields a minimal placeholder page.
func DebugMux(m *Metrics, status func(io.Writer), extra map[string]http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsTextExposition(r) {
			// The version=0.0.4 text format; OpenMetrics scrapers accept it
			// and it keeps one renderer for both.
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = m.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.Snapshot())
	})
	mux.HandleFunc("/debug/serena", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if status != nil {
			status(w)
			return
		}
		_, _ = io.WriteString(w, "serena\n======\n\nmetrics:\n"+m.Snapshot().Render())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for path, h := range extra {
		mux.Handle(path, h)
	}
	return mux
}

// wantsTextExposition decides whether a /metrics request gets the
// Prometheus text format instead of the default JSON snapshot. Explicit
// ?format=prometheus (or =openmetrics) always wins; otherwise the Accept
// header decides — Prometheus sends application/openmetrics-text and/or
// text/plain. Browsers (Accept: text/html,...) keep getting JSON, as does
// an absent or wildcard Accept, so existing consumers are unaffected.
func wantsTextExposition(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "openmetrics":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "application/openmetrics-text") ||
		strings.Contains(accept, "text/plain")
}
