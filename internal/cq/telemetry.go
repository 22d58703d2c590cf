// Self-telemetry: the engine's own health as first-class XD-Relations.
//
// A periodic scraper — an ordinary tick Source — samples the obs registry,
// computes per-interval deltas, and feeds three built-in system relations:
//
//	sys$metrics  infinite  (metric STRING, kind STRING, value REAL, delta REAL)
//	sys$health   finite    (query STRING, state STRING)
//	sys$streams  finite    (stream STRING, state STRING)
//
// sys$metrics is a change stream: a metric contributes a row at the scrapes
// where its value changed (its first observation included), with delta the
// difference to its previously emitted value.
//
// so REGISTER QUERY works over engine health exactly like over a device
// feed (the Kapacitor pattern: the engine self-monitors through the same
// query language its users alert with). sys$health holds one tuple per
// registered query with its current health state; sys$streams one tuple
// per stream with OK/STALLED dead-man state. Both are reconciled
// edge-triggered — tuples change only when the state changes — so
// S[insertion](select[state = "STALLED"](sys$streams)) emits exactly one
// tuple per transition.
//
// System relations are ephemeral (stream.MarkEphemeral): never WAL-attached
// and never checkpointed. During recovery replay, sources are not pumped,
// so they stay empty and replay stays deterministic; after recovery the
// scraper re-seeds them from live state on the next tick. Queries over
// sys$ relations therefore see health reset across a crash — an active
// alert re-fires after recovery (at-least-once for health alerts, which is
// what a dead-man alert should do) while ordinary relations keep their
// exactly-once Def. 8 action-set guarantees.
package cq

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"serena/internal/obs"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// System relation names. The sys$ prefix is reserved: the catalog and
// Register reject user relations and queries under it.
const (
	SysMetrics = "sys$metrics"
	SysHealth  = "sys$health"
	SysStreams = "sys$streams"
	SysPeers   = "sys$peers"

	sysPrefix = "sys$"
)

// isSystemName reports whether a relation or query name is in the reserved
// system namespace.
func isSystemName(name string) bool { return strings.HasPrefix(name, sysPrefix) }

// HealthState is a query's (or stream's) health, ordered by severity.
type HealthState int

// Health states, worst-wins precedence STALLED > OVERLOADED > DEGRADED > OK.
const (
	HealthOK HealthState = iota
	HealthDegraded
	HealthOverloaded
	HealthStalled
)

func (s HealthState) String() string {
	switch s {
	case HealthOK:
		return "OK"
	case HealthDegraded:
		return "DEGRADED"
	case HealthOverloaded:
		return "OVERLOADED"
	case HealthStalled:
		return "STALLED"
	}
	return fmt.Sprintf("HealthState(%d)", int(s))
}

// QueryHealth is one query's current health assessment.
type QueryHealth struct {
	Query        string
	State        HealthState
	Since        service.Instant // instant of the last state change
	Reason       string          // first rule that fired, "" when OK
	LastEval     time.Duration   // latest evaluation wall-clock cost
	Coalesced    int64           // cumulative overload-coalesced instants
	InvokeErrors int64           // cumulative invocation failures
}

// StreamHealth is one stream's dead-man assessment.
type StreamHealth struct {
	Stream  string
	State   HealthState
	Since   service.Instant
	Lag     int64           // instants since last event; LagNeverProduced = silent since birth
	Cadence service.Instant // expected cadence, 0 = no dead-man configured
}

// TelemetryOptions configures EnableSelfTelemetry. The zero value means:
// scrape every instant, retain ~32 instants of sys$metrics, feed the
// process-wide obs.Default registry.
type TelemetryOptions struct {
	// Interval scrapes every N instants (≤ 1 = every instant).
	Interval service.Instant
	// Retention is the sys$metrics trim horizon in instants (≤ 0 = 32).
	// A registered window larger than this extends it automatically.
	Retention service.Instant
	// Registry to sample (nil = obs.Default).
	Registry *obs.Metrics
}

// Telemetry is the self-telemetry subsystem attached to one Executor.
type Telemetry struct {
	e        *Executor
	reg      *obs.Metrics
	interval service.Instant

	metricsRel *stream.XDRelation
	healthRel  *stream.XDRelation
	streamsRel *stream.XDRelation
	peersRel   *stream.XDRelation

	// mu guards the scrape state below against Health()/SetStreamCadence
	// callers; the scrape itself runs inside the tick (tickMu held).
	mu         sync.Mutex
	prev       map[string]float64 // last scraped value per sys$metrics row
	queries    map[string]*QueryHealth
	streams    map[string]*StreamHealth
	qprev      map[string]queryPrev
	cadence    map[string]service.Instant
	mats       map[string]bool // materialized derived relations (INTO targets), snapshotted per scrape
	lastScrape service.Instant

	// Federation membership feed (nil when the deployment has no peers):
	// peerSource snapshots the discovery manager's view, peerRows holds the
	// last tuple written per node for edge-triggered reconciliation.
	peerSource func() []PeerReport
	peerRows   map[string]value.Tuple

	// Sorted registry names, cached across scrapes: the registry only ever
	// grows, so the lists are rebuilt only when a new metric appears
	// (checked by length) instead of sorting every tick.
	counterNames, gaugeNames, histogramNames []string
}

// queryPrev is the per-query counter snapshot from the previous scrape,
// the baseline for "grew this interval" health rules.
type queryPrev struct {
	coalesced  int64
	invErrs    int64
	naiveTicks int64
}

// EnableSelfTelemetry registers the sys$ relations and the scraper source.
// Call it before the first tick and — in durable environments — before
// recovery, so WAL-logged queries over sys$ relations can re-register.
func (e *Executor) EnableSelfTelemetry(opts TelemetryOptions) (*Telemetry, error) {
	if opts.Interval < 1 {
		opts.Interval = 1
	}
	if opts.Retention < 1 {
		opts.Retention = 32
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default
	}
	e.mu.Lock()
	already := e.telemetry != nil
	e.mu.Unlock()
	if already {
		return nil, fmt.Errorf("cq: self-telemetry already enabled")
	}
	t := &Telemetry{
		e:        e,
		reg:      opts.Registry,
		interval: opts.Interval,
		prev:     map[string]float64{},
		queries:  map[string]*QueryHealth{},
		streams:  map[string]*StreamHealth{},
		qprev:    map[string]queryPrev{},
		cadence:  map[string]service.Instant{},
		peerRows: map[string]value.Tuple{},
	}
	t.metricsRel = stream.NewInfinite(schema.MustExtended(SysMetrics, []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "metric", Type: value.String}},
		{Attribute: schema.Attribute{Name: "kind", Type: value.String}},
		{Attribute: schema.Attribute{Name: "value", Type: value.Real}},
		{Attribute: schema.Attribute{Name: "delta", Type: value.Real}},
	}, nil))
	t.healthRel = stream.NewFinite(schema.MustExtended(SysHealth, []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "query", Type: value.String}},
		{Attribute: schema.Attribute{Name: "state", Type: value.String}},
	}, nil))
	t.streamsRel = stream.NewFinite(schema.MustExtended(SysStreams, []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "stream", Type: value.String}},
		{Attribute: schema.Attribute{Name: "state", Type: value.String}},
	}, nil))
	t.peersRel = stream.NewFinite(schema.MustExtended(SysPeers, []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "node", Type: value.String}},
		{Attribute: schema.Attribute{Name: "state", Type: value.String}},
		{Attribute: schema.Attribute{Name: "lease", Type: value.Int}},
		{Attribute: schema.Attribute{Name: "services", Type: value.Int}},
	}, nil))
	for _, x := range []*stream.XDRelation{t.metricsRel, t.healthRel, t.streamsRel, t.peersRel} {
		x.MarkEphemeral()
		if err := e.AddRelation(x); err != nil {
			return nil, err
		}
	}
	e.mu.Lock()
	e.telemetry = t
	// Registering the retention horizon as a pseudo-window lets the
	// executor's existing trimmer bound the sys$metrics log; larger real
	// windows registered later extend it (recordWindows never shrinks).
	if opts.Retention > e.maxWindow[SysMetrics] {
		e.maxWindow[SysMetrics] = opts.Retention
	}
	e.mu.Unlock()
	e.AddSource(t.scrape)
	return t, nil
}

// Telemetry returns the attached self-telemetry subsystem, or nil.
func (e *Executor) Telemetry() *Telemetry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.telemetry
}

// SetStreamCadence configures dead-man detection for a stream: if it
// produces no event for more than `cadence` instants, its sys$streams
// tuple flips to STALLED. 0 removes the dead-man.
func (t *Telemetry) SetStreamCadence(name string, cadence service.Instant) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cadence <= 0 {
		delete(t.cadence, name)
		return
	}
	t.cadence[name] = cadence
}

// PeerReport is one federation peer's membership row, as fed to sys$peers.
// Lease is the CONFIGURED lease in milliseconds (static per deployment, so
// the tuple only changes on real membership transitions and the relation
// stays edge-triggered), not the remaining time.
type PeerReport struct {
	Node     string
	State    string // "alive" or "down"
	Lease    int64  // configured lease, milliseconds
	Services int    // services the peer currently provides
}

// SetPeerSource installs the membership snapshot function behind sys$peers
// (typically the discovery manager's Peers view, adapted by the PEMS
// facade; the indirection keeps cq independent of the discovery package).
// nil removes the feed and retracts all peer tuples at the next scrape.
func (t *Telemetry) SetPeerSource(fn func() []PeerReport) {
	t.mu.Lock()
	t.peerSource = fn
	t.mu.Unlock()
}

// MetricsRelation returns sys$metrics.
func (t *Telemetry) MetricsRelation() *stream.XDRelation { return t.metricsRel }

// HealthRelation returns sys$health.
func (t *Telemetry) HealthRelation() *stream.XDRelation { return t.healthRel }

// StreamsRelation returns sys$streams.
func (t *Telemetry) StreamsRelation() *stream.XDRelation { return t.streamsRel }

// PeersRelation returns sys$peers.
func (t *Telemetry) PeersRelation() *stream.XDRelation { return t.peersRel }

// HealthSnapshot is a point-in-time copy of every health assessment.
type HealthSnapshot struct {
	At      service.Instant // instant of the last scrape
	Queries []QueryHealth   // sorted by query name
	Streams []StreamHealth  // sorted by stream name
}

// Health returns the current health assessments (from the last scrape).
func (t *Telemetry) Health() HealthSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := HealthSnapshot{At: t.lastScrape}
	for _, qh := range t.queries {
		out.Queries = append(out.Queries, *qh)
	}
	for _, sh := range t.streams {
		out.Streams = append(out.Streams, *sh)
	}
	sort.Slice(out.Queries, func(i, j int) bool { return out.Queries[i].Query < out.Queries[j].Query })
	sort.Slice(out.Streams, func(i, j int) bool { return out.Streams[i].Stream < out.Streams[j].Stream })
	return out
}

// scrape is the telemetry Source: it runs at the head of every tick (tickMu
// held, e.mu NOT held), before queries evaluate, so the relations it feeds
// are visible to same-instant query evaluation. Everything it reads about
// queries (eval latency, counters) is therefore the state after instant
// at−1 — health lags evaluation by exactly one instant.
func (t *Telemetry) scrape(at service.Instant) error {
	if t.interval > 1 && at%t.interval != 0 {
		return nil
	}
	e := t.e
	e.mu.Lock()
	budget := e.tickBudget
	order := append([]string(nil), e.order...)
	qs := make([]*Query, len(order))
	for i, name := range order {
		qs[i] = e.queries[name]
	}
	rels := make(map[string]*stream.XDRelation, len(e.rels))
	for name, x := range e.rels {
		rels[name] = x
	}
	mats := make(map[string]bool)
	for name, q := range e.producers {
		if q.into != "" {
			mats[name] = true
		}
	}
	e.mu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	t.mats = mats
	t.lastScrape = at
	if err := t.scrapeMetrics(at); err != nil {
		return err
	}
	if err := t.scrapeQueries(at, order, qs, rels, budget); err != nil {
		return err
	}
	if err := t.scrapeStreams(at, rels); err != nil {
		return err
	}
	return t.scrapePeers(at)
}

// scrapePeers reconciles sys$peers against the membership snapshot,
// edge-triggered like the other finite system relations: one tuple per
// peer, rewritten only when the peer's (state, lease, services) changes,
// retracted when the peer is forgotten (or the source is removed).
func (t *Telemetry) scrapePeers(at service.Instant) error {
	var reports []PeerReport
	if t.peerSource != nil {
		reports = t.peerSource()
	}
	seen := make(map[string]bool, len(reports))
	for _, pr := range reports {
		if pr.Node == "" || seen[pr.Node] {
			continue
		}
		seen[pr.Node] = true
		row := value.Tuple{
			value.NewString(pr.Node), value.NewString(pr.State),
			value.NewInt(pr.Lease), value.NewInt(int64(pr.Services)),
		}
		old, ok := t.peerRows[pr.Node]
		if ok && old.Equal(row) {
			continue
		}
		if ok {
			if err := t.peersRel.Delete(at, old); err != nil {
				return err
			}
		}
		if err := t.peersRel.Insert(at, row); err != nil {
			return err
		}
		t.peerRows[pr.Node] = row
		obs.Default.Counter("cq.health.transitions").Inc()
	}
	for node, old := range t.peerRows {
		if seen[node] {
			continue
		}
		if err := t.peersRel.Delete(at, old); err != nil {
			return err
		}
		delete(t.peerRows, node)
	}
	return nil
}

// scrapeMetrics turns the registry snapshot into sys$metrics rows with
// per-interval deltas (first observation: delta = value). sys$metrics is a
// change stream: a metric appears at the scrapes where its value changed
// (first observation included), so an idle engine writes ~nothing per tick
// — that, not the scrape itself, is what keeps the scraper inside its ≤5%
// tick budget with hundreds of registered series.
func (t *Telemetry) scrapeMetrics(at service.Instant) error {
	snap := t.reg.Snapshot()
	row := func(metric, kind string, v float64) error {
		prev, seen := t.prev[metric]
		if seen && v == prev {
			return nil
		}
		t.prev[metric] = v
		return t.metricsRel.Insert(at, value.Tuple{
			value.NewString(metric), value.NewString(kind), value.NewReal(v), value.NewReal(v - prev),
		})
	}
	t.counterNames = sortedNamesCached(t.counterNames, snap.Counters)
	for _, name := range t.counterNames {
		if err := row(name, "counter", float64(snap.Counters[name])); err != nil {
			return err
		}
	}
	t.gaugeNames = sortedNamesCached(t.gaugeNames, snap.Gauges)
	for _, name := range t.gaugeNames {
		if err := row(name, "gauge", float64(snap.Gauges[name])); err != nil {
			return err
		}
	}
	t.histogramNames = sortedNamesCached(t.histogramNames, snap.Histograms)
	for _, name := range t.histogramNames {
		h := snap.Histograms[name]
		for _, sub := range [...]struct {
			suffix string
			v      float64
		}{
			{".count", float64(h.Count)},
			{".mean_ns", float64(h.Mean)},
			{".p50_ns", float64(h.P50)},
			{".p95_ns", float64(h.P95)},
			{".p99_ns", float64(h.P99)},
			{".max_ns", float64(h.Max)},
		} {
			if err := row(name+sub.suffix, "histogram", sub.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortedNamesCached returns the sorted keys of m, reusing cached when the
// key set has not grown (registry name sets never shrink).
func sortedNamesCached[V any](cached []string, m map[string]V) []string {
	if len(cached) == len(m) {
		return cached
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// scrapeQueries runs the health state machine per registered query and
// reconciles sys$health (edge-triggered: tuples change on transition only).
func (t *Telemetry) scrapeQueries(at service.Instant, order []string, qs []*Query, rels map[string]*stream.XDRelation, budget time.Duration) error {
	seen := make(map[string]bool, len(order))
	for i, name := range order {
		q := qs[i]
		if q == nil {
			continue
		}
		seen[name] = true
		state, reason := t.assessQuery(at, q, rels, budget)
		qh := t.queries[name]
		if qh == nil {
			qh = &QueryHealth{Query: name, State: state, Since: at, Reason: reason}
			t.queries[name] = qh
			if err := t.healthRel.Insert(at, healthTuple(name, state)); err != nil {
				return err
			}
			obs.Default.Counter("cq.health.transitions").Inc()
		} else if state != qh.State {
			if err := t.healthRel.Delete(at, healthTuple(name, qh.State)); err != nil {
				return err
			}
			if err := t.healthRel.Insert(at, healthTuple(name, state)); err != nil {
				return err
			}
			qh.State, qh.Since, qh.Reason = state, at, reason
			obs.Default.Counter("cq.health.transitions").Inc()
		} else {
			qh.Reason = reason
		}
		qh.LastEval = q.LastEvalLatency()
		qh.Coalesced = q.Coalesced()
		qh.InvokeErrors = q.InvokeErrorTotal()
		obs.Default.Gauge(obs.Key("cq.query.health", name)).Set(int64(state))
		_, naive := q.EvalCounts()
		t.qprev[name] = queryPrev{
			coalesced:  qh.Coalesced,
			invErrs:    qh.InvokeErrors,
			naiveTicks: naive,
		}
	}
	// Unregistered queries: retract their tuple and forget them.
	for name, qh := range t.queries {
		if seen[name] {
			continue
		}
		if err := t.healthRel.Delete(at, healthTuple(name, qh.State)); err != nil {
			return err
		}
		delete(t.queries, name)
		delete(t.qprev, name)
	}
	return nil
}

// assessQuery applies the health rules, worst state first:
//
//	STALLED     an input stream with a configured cadence went silent
//	OVERLOADED  coalesced under overload this interval, or the latest
//	            evaluation alone exceeded the tick budget
//	DEGRADED    invocation failures this interval, an instant evaluated
//	            pinned naive this interval, or an open breaker on a service
//	            implementing one of the plan's prototypes
//	OK          otherwise
func (t *Telemetry) assessQuery(at service.Instant, q *Query, rels map[string]*stream.XDRelation, budget time.Duration) (HealthState, string) {
	prev := t.qprev[q.Name()]
	for _, name := range planBaseStreams(q.plan, rels) {
		if stalled, lag := t.streamStalled(at, name, rels); stalled {
			return HealthStalled, fmt.Sprintf("input stream %s silent for %d instants (cadence %d)", name, lag, t.cadence[name])
		}
	}
	if c := q.Coalesced(); c > prev.coalesced {
		return HealthOverloaded, fmt.Sprintf("coalesced %d instants under overload this interval", c-prev.coalesced)
	}
	if budget > 0 {
		if ev := q.LastEvalLatency(); ev > budget {
			return HealthOverloaded, fmt.Sprintf("last evaluation %s exceeded tick budget %s", ev, budget)
		}
	}
	if n := q.InvokeErrorTotal(); n > prev.invErrs {
		return HealthDegraded, fmt.Sprintf("%d invocation failures this interval", n-prev.invErrs)
	}
	if _, naive := q.EvalCounts(); naive > prev.naiveTicks {
		return HealthDegraded, fmt.Sprintf("pinned to naive evaluation for %d instants this interval", naive-prev.naiveTicks)
	}
	if ref, proto, open := t.openBreakerFor(q); open {
		return HealthDegraded, fmt.Sprintf("breaker open on %s (prototype %s)", ref, proto)
	}
	return HealthOK, ""
}

// openBreakerFor reports an Open circuit breaker on any service
// implementing one of the plan's invocation prototypes.
func (t *Telemetry) openBreakerFor(q *Query) (ref, proto string, open bool) {
	if len(q.invNodes) == 0 {
		return "", "", false
	}
	bs := t.e.reg.Breakers()
	if bs == nil {
		return "", "", false
	}
	protos := make([]string, 0, len(q.invNodes))
	for _, inv := range q.invNodes {
		protos = append(protos, inv.Proto)
	}
	states := bs.States()
	refs := make([]string, 0, len(states))
	for r := range states {
		refs = append(refs, r)
	}
	sort.Strings(refs) // deterministic blame when several are open
	for _, r := range refs {
		if states[r] != resilience.Open {
			continue
		}
		svc, err := t.e.reg.Lookup(r)
		if err != nil {
			continue
		}
		for _, p := range protos {
			if svc.Implements(p) {
				return r, p, true
			}
		}
	}
	return "", "", false
}

// scrapeStreams runs dead-man detection over every (non-system) infinite
// relation — plus every materialized derived relation, finite or not, so a
// cadence can be configured on an INTO target whose producer went quiet —
// and reconciles sys$streams edge-triggered.
func (t *Telemetry) scrapeStreams(at service.Instant, rels map[string]*stream.XDRelation) error {
	seen := make(map[string]bool, len(rels))
	names := make([]string, 0, len(rels))
	for name, x := range rels {
		if (!x.Infinite() && !t.mats[name]) || isSystemName(name) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		seen[name] = true
		stalled, lag := t.streamStalled(at, name, rels)
		state := HealthOK
		if stalled {
			state = HealthStalled
		}
		sh := t.streams[name]
		if sh == nil {
			sh = &StreamHealth{Stream: name, State: state, Since: at}
			t.streams[name] = sh
			if err := t.streamsRel.Insert(at, streamTuple(name, state)); err != nil {
				return err
			}
			obs.Default.Counter("cq.health.transitions").Inc()
		} else if state != sh.State {
			if err := t.streamsRel.Delete(at, streamTuple(name, sh.State)); err != nil {
				return err
			}
			if err := t.streamsRel.Insert(at, streamTuple(name, state)); err != nil {
				return err
			}
			sh.State, sh.Since = state, at
			obs.Default.Counter("cq.health.transitions").Inc()
		}
		sh.Lag = lag
		sh.Cadence = t.cadence[name]
		obs.Default.Gauge(obs.Key("cq.stream.health", name)).Set(int64(state))
	}
	for name, sh := range t.streams {
		if seen[name] {
			continue
		}
		if err := t.streamsRel.Delete(at, streamTuple(name, sh.State)); err != nil {
			return err
		}
		delete(t.streams, name)
	}
	return nil
}

// streamStalled evaluates the dead-man rule for one stream at scrape time
// (before this instant's sources pump, so a continuously producing stream
// shows lag 1). Without a configured cadence a stream never stalls. The
// returned lag is LagNeverProduced for a stream that has no events at all;
// for the stall comparison such a stream counts as infinitely late.
func (t *Telemetry) streamStalled(at service.Instant, name string, rels map[string]*stream.XDRelation) (bool, int64) {
	x := rels[name]
	if x == nil || (!x.Infinite() && !t.mats[name]) {
		return false, 0
	}
	last := x.LastInstant()
	lag := int64(at - last)
	effective := lag
	if last < 0 {
		lag = LagNeverProduced
		effective = int64(at) + 1
	}
	cadence, ok := t.cadence[name]
	if !ok {
		return false, lag
	}
	return effective > int64(cadence), lag
}

// planBaseStreams lists the infinite base relations a plan reads (sorted,
// deduplicated), skipping the system relations themselves so health queries
// over sys$ feeds don't self-assess.
func planBaseStreams(n query.Node, rels map[string]*stream.XDRelation) []string {
	set := map[string]bool{}
	for _, name := range planBaseNames(n) {
		if x := rels[name]; x != nil && x.Infinite() && !isSystemName(name) {
			set[name] = true
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func healthTuple(name string, state HealthState) value.Tuple {
	return value.Tuple{value.NewString(name), value.NewString(state.String())}
}

func streamTuple(name string, state HealthState) value.Tuple {
	return value.Tuple{value.NewString(name), value.NewString(state.String())}
}
