package pems

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"serena/internal/cq"
	"serena/internal/service"
)

// EnableSelfTelemetry turns on the executor's self-telemetry subsystem:
// the sys$metrics / sys$health / sys$streams system relations and the
// per-tick health scraper (see internal/cq/telemetry.go). In a durable
// environment call it after EnableDurability and before Recover, so
// WAL-logged queries over the sys$ relations can re-register.
func (p *PEMS) EnableSelfTelemetry(opts cq.TelemetryOptions) (*cq.Telemetry, error) {
	t, err := p.exec.EnableSelfTelemetry(opts)
	if err == nil && p.manager != nil {
		// Federated deployments also get sys$peers, fed from the discovery
		// manager's membership view.
		t.SetPeerSource(p.peerReports)
	}
	return t, err
}

// SetStreamCadence configures dead-man detection for a stream: silent for
// more than `cadence` instants → STALLED in sys$streams and /debug/health.
func (p *PEMS) SetStreamCadence(name string, cadence service.Instant) error {
	t := p.exec.Telemetry()
	if t == nil {
		return fmt.Errorf("pems: self-telemetry is not enabled")
	}
	if _, ok := p.exec.Relation(name); !ok {
		return fmt.Errorf("pems: unknown relation %q", name)
	}
	t.SetStreamCadence(name, cadence)
	return nil
}

// HealthReport is the JSON shape served by /debug/health.
type HealthReport struct {
	Enabled      bool                 `json:"enabled"`
	Instant      int64                `json:"instant"`
	TickOverruns int64                `json:"tick_overruns"`
	Queries      []QueryHealthReport  `json:"queries"`
	Streams      []StreamHealthReport `json:"streams"`
}

// QueryHealthReport is one query's health in a HealthReport.
type QueryHealthReport struct {
	Query        string `json:"query"`
	State        string `json:"state"`
	Since        int64  `json:"since"`
	Reason       string `json:"reason,omitempty"`
	LastEvalNS   int64  `json:"last_eval_ns"`
	Coalesced    int64  `json:"coalesced"`
	InvokeErrors int64  `json:"invoke_errors"`
}

// StreamHealthReport is one stream's dead-man state in a HealthReport.
type StreamHealthReport struct {
	Stream  string `json:"stream"`
	State   string `json:"state"`
	Since   int64  `json:"since"`
	Lag     int64  `json:"lag"` // -1 = never produced
	Cadence int64  `json:"cadence,omitempty"`
}

// HealthReport snapshots the health assessments from the last scrape.
// Enabled is false (with everything else zero) when telemetry is off.
func (p *PEMS) HealthReport() HealthReport {
	t := p.exec.Telemetry()
	if t == nil {
		return HealthReport{}
	}
	h := t.Health()
	rep := HealthReport{
		Enabled:      true,
		Instant:      int64(h.At),
		TickOverruns: p.exec.TickOverruns(),
	}
	for _, q := range h.Queries {
		rep.Queries = append(rep.Queries, QueryHealthReport{
			Query:        q.Query,
			State:        q.State.String(),
			Since:        int64(q.Since),
			Reason:       q.Reason,
			LastEvalNS:   int64(q.LastEval),
			Coalesced:    q.Coalesced,
			InvokeErrors: q.InvokeErrors,
		})
	}
	for _, s := range h.Streams {
		rep.Streams = append(rep.Streams, StreamHealthReport{
			Stream:  s.Stream,
			State:   s.State.String(),
			Since:   int64(s.Since),
			Lag:     s.Lag,
			Cadence: int64(s.Cadence),
		})
	}
	return rep
}

// HealthReportText renders the health report for the shell's .health
// command, mirroring OverloadReport's style.
func (p *PEMS) HealthReportText() string {
	rep := p.HealthReport()
	if !rep.Enabled {
		return "self-telemetry: disabled (start with -telemetry, or EnableSelfTelemetry)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "health @ instant %d (tick overruns %d)\n", rep.Instant, rep.TickOverruns)
	fmt.Fprintf(&b, "\nqueries (%d):\n", len(rep.Queries))
	for _, q := range rep.Queries {
		fmt.Fprintf(&b, "  %-20s %-10s since=%d eval=%dns coalesced=%d errors=%d",
			q.Query, q.State, q.Since, q.LastEvalNS, q.Coalesced, q.InvokeErrors)
		if q.Reason != "" {
			fmt.Fprintf(&b, "  (%s)", q.Reason)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nstreams (%d):\n", len(rep.Streams))
	for _, s := range rep.Streams {
		lag := fmt.Sprintf("%d", s.Lag)
		if s.Lag < 0 {
			lag = "never-produced"
		}
		cad := "off"
		if s.Cadence > 0 {
			cad = fmt.Sprintf("%d", s.Cadence)
		}
		fmt.Fprintf(&b, "  %-20s %-10s since=%d lag=%s cadence=%s\n", s.Stream, s.State, s.Since, lag, cad)
	}
	return b.String()
}

// healthHandler serves /debug/health: the JSON HealthReport (with
// enabled:false when telemetry is off, rather than a 404, so probes can
// tell "off" from "gone").
func (p *PEMS) healthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p.HealthReport())
	})
}
