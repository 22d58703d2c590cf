package pems

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"serena/internal/obs"
	"serena/internal/trace"
)

// ServeMetrics starts an HTTP observability endpoint on addr (e.g.
// "127.0.0.1:0" to pick a free port) and returns the bound address. Routes
// (the same obs.DebugMux layout pemsd's -debug listener uses) serve this
// engine's metrics and traces only:
//
//	/metrics        metrics snapshot: JSON by default, Prometheus text
//	                with ?format=prometheus or a matching Accept header
//	/debug/serena   human-readable status: clock, queries, breakers, metrics
//	/debug/health   JSON health report (per-query states, stream dead-man)
//	/debug/vars     the standard library's expvar JSON (memstats, cmdline)
//	/debug/trace    retained invocation traces as JSON (?trace_id=, ?limit=)
//	/debug/pprof/*  net/http/pprof profiles
//
// The server is stopped by Close. Starting a second server on the same
// PEMS errors.
func (p *PEMS) ServeMetrics(addr string) (string, error) {
	p.mu.Lock()
	if p.metricsShutdown != nil {
		p.mu.Unlock()
		return "", fmt.Errorf("pems: metrics server already running")
	}
	p.mu.Unlock()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: p.DebugHandler()}
	go func() { _ = srv.Serve(ln) }()
	p.mu.Lock()
	p.metricsShutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	p.mu.Unlock()
	return ln.Addr().String(), nil
}

// DebugHandler returns the observability mux ServeMetrics serves, for
// embedding into an existing HTTP server or an httptest harness.
func (p *PEMS) DebugHandler() http.Handler {
	return obs.DebugMux(p.registry.Metrics(), p.writeStatus, map[string]http.Handler{
		"/debug/trace":  trace.Handler(p.registry.Tracer()),
		"/debug/health": p.healthHandler(),
		"/debug/peers":  p.peersHandler(),
	})
}

// writeStatus renders the human-readable status page (/debug/serena).
func (p *PEMS) writeStatus(w io.Writer) {
	var b strings.Builder
	fmt.Fprintf(&b, "serena PEMS\n===========\n\nclock instant: %d\n", p.exec.Now())

	names := p.exec.QueryNames()
	fmt.Fprintf(&b, "\ncontinuous queries (%d):\n", len(names))
	for _, name := range names {
		q, ok := p.exec.Query(name)
		if !ok {
			continue
		}
		st := q.Stats()
		fmt.Fprintf(&b, "  %-16s %s\n", name, q.Plan())
		fmt.Fprintf(&b, "  %-16s on-error=%s passive=%d memoized=%d active=%d errors=%d\n",
			"", q.Degradation(), st.Passive, st.Memoized+st.Coalesced, st.Active, len(q.InvokeErrors()))
	}

	rels := p.exec.RelationNames()
	fmt.Fprintf(&b, "\nrelations (%d): %s\n", len(rels), strings.Join(rels, ", "))

	if breakers := p.registry.Breakers(); breakers != nil {
		states := breakers.States()
		refs := make([]string, 0, len(states))
		for ref := range states {
			refs = append(refs, ref)
		}
		sort.Strings(refs)
		fmt.Fprintf(&b, "\ncircuit breakers (%d):\n", len(refs))
		for _, ref := range refs {
			fmt.Fprintf(&b, "  %-16s %s\n", ref, states[ref])
		}
	}

	fmt.Fprintf(&b, "\nmetrics:\n%s", p.registry.Metrics().Snapshot().Render())
	_, _ = io.WriteString(w, b.String())
}
