// Package cq implements continuous query execution over XD-Relations
// (Gripay et al., EDBT 2010, Section 4): a discrete clock drives the
// per-instant evaluation of registered query plans. Operators are applied
// to instantaneous relations; the Window operator W[period] reads the last
// `period` instants of a stream; the Streaming operators S[type] emit
// insertion/deletion/heartbeat deltas; and — following Section 4.2 — the
// invocation operator fires only for tuples newly inserted into its input,
// never again for tuples that persist across instants.
package cq

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"serena/internal/algebra"
	"serena/internal/obs"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/trace"
	"serena/internal/value"
)

// execObs is an executor's continuous-execution metrics, looked up once in
// its registry's: tick latency, Section 4.2 invocation-cache effectiveness
// (cq.invoke_cache.*, the cross-instant invocation memo), operator-level
// delta-path volume (cq.delta.*), and the overload and ingest counters of
// overload.go. Keyed series — per-stream instant lag (clock instant minus
// the last instant with events: how stale each stream is), per-query eval
// cost, per-relation ingest — are cached where they are kept.
type execObs struct {
	tickLatency, queryEvalTime *obs.Histogram

	ticks, invokeCacheHits, invokeCacheMisses                 *obs.Counter
	deltaTicks, deltaFallbackTicks, deltaReinits, deltaRowsIn *obs.Counter
	deltaRowsOut, tickOverruns, coalescedEvals, ingestDrained *obs.Counter
	ingestOffered, ingestShed                                 *obs.Counter
	tickBudget, tickLast                                      *obs.Gauge
}

func newExecObs(m *obs.Metrics) execObs {
	return execObs{
		tickLatency:        m.Histogram("cq.tick.latency"),
		queryEvalTime:      m.Histogram("cq.query.eval_latency"),
		ticks:              m.Counter("cq.ticks"),
		invokeCacheHits:    m.Counter("cq.invoke_cache.hits"),
		invokeCacheMisses:  m.Counter("cq.invoke_cache.misses"),
		deltaTicks:         m.Counter("cq.delta.ticks"),
		deltaFallbackTicks: m.Counter("cq.delta.fallback_ticks"),
		deltaReinits:       m.Counter("cq.delta.reinits"),
		deltaRowsIn:        m.Counter("cq.delta.rows_in"),
		deltaRowsOut:       m.Counter("cq.delta.rows_out"),
		tickOverruns:       m.Counter("cq.tick.overruns"),
		coalescedEvals:     m.Counter("cq.queries.coalesced"),
		ingestDrained:      m.Counter("cq.ingest.drained"),
		ingestOffered:      m.Counter("stream.ingest.offered"),
		ingestShed:         m.Counter("stream.ingest.shed"),
		tickBudget:         m.Gauge("cq.tick.budget_ns"),
		tickLast:           m.Gauge("cq.tick.last_ns"),
	}
}

// Executor owns a set of dynamic relations and registered continuous
// queries, and advances them over a shared discrete clock.
//
// Locking: tickMu serializes whole ticks (live and replay) and every
// structural mutation that must not interleave with one (Register,
// Unregister, AddRelation, SetDurability, Restore, Snapshot). mu guards the
// executor's fields for brief reads and writes only — readers like Query,
// QueryNames and the metrics pollers take mu alone, so they observe
// consistent state without blocking for a whole tick. Lock order is always
// tickMu before mu, never the reverse.
type Executor struct {
	tickMu  sync.Mutex
	mu      sync.Mutex
	reg     *service.Registry
	rels    map[string]*stream.XDRelation
	queries map[string]*Query
	// producers maps each query's output-relation name (the INTO target
	// when set, the query name otherwise) back to the producing query —
	// the dependency index Unregister, trimming, checkpointing and the
	// producer→consumer delta fast path all consult.
	producers map[string]*Query
	order     []string // query evaluation order (registration order)
	sources   []Source
	now       service.Instant
	// parallelism sizes the β dispatch pool of one invocation operator.
	parallelism int
	// maxWindow tracks, per stream name, the largest window period any
	// registered query uses — the retention horizon for log trimming.
	maxWindow map[string]service.Instant
	// dur, when set, write-ahead-logs tick boundaries, base-relation events
	// and active-β intents/results (see durable.go).
	dur Durability
	// onCheckpoint persists a state snapshot when dur reports one is due.
	onCheckpoint func(CheckpointState) error
	// Overload protection (see overload.go): tickBudget is the soft tick
	// deadline (0 = none) and coalesce lets the tick after an overrun skip
	// shedable passive-only queries, both fixed at construction;
	// overranLast carries the overrun signal from one tick to the next;
	// tickOverruns counts them.
	tickBudget   time.Duration
	coalesce     bool
	overranLast  bool
	tickOverruns int64
	// telemetry, when enabled, owns the sys$ system relations and the
	// health scraper source (see telemetry.go).
	telemetry *Telemetry

	// m holds the executor's metrics in its registry's; lag (under mu)
	// and ingest (under tickMu) cache the keyed series per relation name.
	m      execObs
	lag    map[string]*obs.Gauge
	ingest map[string]*ingestObs
}

// Source is a data producer pumped at the start of every tick, before
// query evaluation — e.g. a sensor poller or an RSS feed wrapper.
type Source func(at service.Instant) error

// Options is an executor's operating point, fixed at construction.
type Options struct {
	// Parallelism sizes the β dispatch pool of one invocation operator, for
	// continuous and one-shot queries alike (Section 5.1's asynchronous
	// invocation handling). Values < 2 mean sequential.
	Parallelism int
	// TickBudget is a soft deadline for one tick: a longer tick counts as
	// an overrun (cq.tick.overruns). It never aborts a running tick —
	// cutting an active β mid-flight could lose an action result — it only
	// informs the next instant's scheduling. 0 means no budget.
	TickBudget time.Duration
	// Coalesce lets the tick after an overrun skip shedable passive-only
	// queries for one instant (see overload.go). Without it overruns are
	// only counted.
	Coalesce bool
}

// NewExecutor returns an executor starting before instant 0.
func NewExecutor(reg *service.Registry, opts Options) *Executor {
	e := &Executor{
		reg:         reg,
		rels:        make(map[string]*stream.XDRelation),
		queries:     make(map[string]*Query),
		producers:   make(map[string]*Query),
		maxWindow:   make(map[string]service.Instant),
		now:         -1,
		parallelism: opts.Parallelism,
		tickBudget:  opts.TickBudget,
		coalesce:    opts.Coalesce,
		m:           newExecObs(reg.Metrics()),
		lag:         make(map[string]*obs.Gauge),
		ingest:      make(map[string]*ingestObs),
	}
	if opts.TickBudget > 0 {
		e.m.tickBudget.Set(int64(opts.TickBudget))
	}
	return e
}

// Now returns the last executed instant (−1 before the first tick).
func (e *Executor) Now() service.Instant {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// AddRelation registers a dynamic relation under its schema name.
func (e *Executor) AddRelation(x *stream.XDRelation) error {
	if x.Name() == "" {
		return fmt.Errorf("cq: relation needs a named schema")
	}
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.rels[x.Name()]; dup {
		return fmt.Errorf("cq: relation %q already registered", x.Name())
	}
	e.rels[x.Name()] = x
	if e.dur != nil && !x.Ephemeral() {
		e.dur.AttachRelation(x)
	}
	return nil
}

// Relation returns a registered dynamic relation.
func (e *Executor) Relation(name string) (*stream.XDRelation, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	x, ok := e.rels[name]
	return x, ok
}

// Materialized reports whether name is a materialized derived relation —
// the INTO target of a registered query. Its WAL events are informational
// during replay: recovery re-derives the contents by re-evaluating the
// producer, so applying the logged events too would double-apply.
func (e *Executor) Materialized(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	q := e.producers[name]
	return q != nil && q.into != ""
}

// SetParallelism bounds how many service invocations one invocation
// operator may run concurrently (Options.Parallelism at construction).
func (e *Executor) SetParallelism(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.parallelism = n
}

// NewContext returns an evaluation context at instant at over env that
// carries the executor's invocation parallelism, so one-shot queries invoke
// services exactly as continuous ones do.
func (e *Executor) NewContext(env query.Environment, at service.Instant) *query.Context {
	ctx := query.NewContext(env, e.reg, at)
	e.mu.Lock()
	ctx.Parallelism = e.parallelism
	e.mu.Unlock()
	return ctx
}

// AddSource registers a producer pumped at each tick before evaluation.
func (e *Executor) AddSource(s Source) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sources = append(e.sources, s)
}

// Query is one registered continuous query with its cross-instant state.
type Query struct {
	name string
	plan query.Node

	// OnResult, when set, is called after each tick with the instantaneous
	// result and its insertion/deletion deltas relative to the previous
	// instant.
	OnResult func(at service.Instant, result *algebra.XRelation, inserted, deleted []value.Tuple)

	infinite   bool // root is a Stream node → result is a stream
	out        *stream.XDRelation
	prevOutput map[string]value.Tuple // previous instantaneous result, by key

	// into names the materialized output relation (REGISTER QUERY … INTO);
	// "" means the output is registered under the query's own name and is
	// recomputed rather than logged. retain is the INTO relation's RETAIN
	// horizon in instants (0 = engine default for infinite outputs, no
	// trimming for finite ones). Both are set at Register, then read-only.
	into   string
	retain service.Instant

	invCache   map[*query.Invoke]map[string][]value.Tuple
	streamPrev map[*query.Stream]map[string]value.Tuple

	// Plan nodes with cross-instant state, in DFS preorder. The indexes give
	// invoke and stream nodes a stable identity that survives a restart (the
	// checkpointed plan text re-parses to the same shape), letting WAL
	// records and snapshots address them by position.
	invNodes    []*query.Invoke
	invIdx      map[*query.Invoke]int
	streamNodes []*query.Stream

	// mu guards the accessor-visible state below, so Stats/LastResult/
	// InvokeErrors readers never race the tick writing them (and never
	// block on the tick lock). actions is internally synchronized.
	mu      sync.Mutex
	stats   query.InvokeStats
	actions *query.ActionSet
	lastRes *algebra.XRelation
	invErrs []query.InvokeError
	// invErrTotal counts every invocation failure ever recorded — invErrs
	// is capped at the last 100, so interval deltas (the health state
	// machine's DEGRADED signal) need a monotonic counter.
	invErrTotal int64
	// lastEvalNS is the wall-clock cost of the query's latest evaluation,
	// compared against the tick budget by the health state machine.
	lastEvalNS int64
	// evalGauge publishes lastEvalNS as cq.query.eval_ns{name}.
	evalGauge *obs.Gauge

	// degradation selects the query's β failure policy (set at Register,
	// then read-only; resilience.Default behaves like SkipTuple here).
	degradation resilience.DegradationPolicy

	// hasActive marks plans containing an active β (set at Register, then
	// read-only); such queries are exempt from overload coalescing, as is
	// everything their plan reads. coalesced (guarded by mu) counts the
	// instants this query was skipped under overload.
	hasActive bool
	coalesced int64

	// delta is the compiled incremental-evaluation program (see delta.go);
	// every registered plan has one. naive, guarded by mu, pins the query to
	// the re-evaluation path (SetNaiveEvaluation); deltaTicks/naiveTicks
	// (mu) count instants evaluated by each path.
	delta      *deltaProgram
	naive      bool
	deltaTicks int64
	naiveTicks int64

	// lastDelta (guarded by mu) is the query's most recent per-tick output
	// delta, recorded for finite outputs on both evaluation paths. A
	// downstream consumer's deltaBase reads it through producerDelta,
	// feeding the producer's (inserts, deletes) straight into its gate
	// instead of re-diffing the materialized relation's event log.
	lastDelta queryDelta
}

// queryDelta is one tick's (inserts, deletes) as applied to the query's
// output relation. at identifies the instant it belongs to — a consumer
// must only consume it when the producer evaluated at the same instant.
type queryDelta struct {
	at  service.Instant
	ins []value.Tuple
	del []value.Tuple
}

// Name returns the query's registration name.
func (q *Query) Name() string { return q.name }

// Plan returns the registered plan.
func (q *Query) Plan() query.Node { return q.plan }

// Output returns the result XD-Relation, fed with the query's deltas.
func (q *Query) Output() *stream.XDRelation { return q.out }

// Into returns the materialized output relation name (REGISTER QUERY …
// INTO), or "" when the output is registered under the query's own name.
func (q *Query) Into() string { return q.into }

// Retain returns the output relation's explicit RETAIN horizon in
// instants (0 = none configured; the output then falls back to
// DefaultDerivedRetention).
func (q *Query) Retain() service.Instant { return q.retain }

// OutName returns the name the query's output relation is registered
// under: the INTO target when set, the query name otherwise.
func (q *Query) OutName() string {
	if q.into != "" {
		return q.into
	}
	return q.name
}

// Stats returns cumulative invocation statistics.
func (q *Query) Stats() query.InvokeStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Actions returns the cumulative action set (all active invocations fired
// since registration — each distinct action appears once).
func (q *Query) Actions() *query.ActionSet { return q.actions }

// LastResult returns the instantaneous result of the latest tick.
func (q *Query) LastResult() *algebra.XRelation {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.lastRes
}

// Degradation returns the query's β failure policy.
func (q *Query) Degradation() resilience.DegradationPolicy { return q.degradation }

// InvokeErrors returns the invocation failures skipped so far (most recent
// last, bounded to the last 100). A flaky device degrades a continuous
// query to partial results instead of killing it; the failures are
// reported here.
func (q *Query) InvokeErrors() []query.InvokeError {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]query.InvokeError, len(q.invErrs))
	copy(out, q.invErrs)
	return out
}

func (q *Query) recordInvokeError(e query.InvokeError) {
	const keep = 100
	q.mu.Lock()
	defer q.mu.Unlock()
	q.invErrTotal++
	q.invErrs = append(q.invErrs, e)
	if len(q.invErrs) > keep {
		q.invErrs = q.invErrs[len(q.invErrs)-keep:]
	}
}

// InvokeErrorTotal returns the total number of invocation failures recorded
// since registration (monotonic, unlike the bounded InvokeErrors buffer).
func (q *Query) InvokeErrorTotal() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.invErrTotal
}

// LastEvalLatency returns the wall-clock duration of the query's most
// recent evaluation (0 before the first tick).
func (q *Query) LastEvalLatency() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return time.Duration(q.lastEvalNS)
}

// schemaEnv adapts the executor's relations to query.Environment for
// schema derivation (empty relations carrying the real schemas).
type schemaEnv struct{ e *Executor }

func (s schemaEnv) Relation(name string) (*algebra.XRelation, error) {
	x, ok := s.e.rels[name]
	if !ok {
		return nil, fmt.Errorf("cq: unknown relation %q", name)
	}
	return algebra.Empty(x.Schema()), nil
}

// DefaultDerivedRetention is the event-log horizon, in instants, applied
// to a derived output relation, finite or infinite, whose query declares
// no RETAIN clause. Without it a cascaded stream query with no windowed
// reader, or a finite output that churns, would grow its event log without
// bound. A window over the output still holds back the trim.
const DefaultDerivedRetention service.Instant = 256

// RegisterOptions carries the optional clauses of REGISTER QUERY.
type RegisterOptions struct {
	// Into materializes the query's output as a named derived XD-Relation
	// ("" = register the output under the query's own name, recomputed on
	// replay rather than WAL-logged).
	Into string
	// Retain bounds the output relation's event log to the last n instants
	// (0 = no explicit policy; the output then defaults to
	// DefaultDerivedRetention). A window over the output holds it back.
	Retain service.Instant
	// Degradation is the ON ERROR clause, fixed for the query's lifetime:
	// resilience.FailFast aborts the tick on the first invocation failure,
	// SkipTuple drops the failing tuple (also what Default does — the
	// paper's no-service case), NullFill keeps the tuple with its virtual
	// attributes realized as NULL. Failed tuples are never cached: they are
	// retried at the next instant under every policy.
	Degradation resilience.DegradationPolicy
}

// RegisterWith adds a continuous query under a unique name. The plan is
// validated: schemas must derive, and every base reference to an infinite
// XD-Relation must appear directly under a Window operator (an unwindowed
// stream has no finite instantaneous relation). The options carry the ON
// ERROR/INTO/RETAIN clauses: the query degrades under opts.Degradation from
// its first evaluation on, and its output relation is registered under
// opts.Into, WAL-logged and checkpointed like a base relation, and trimmed
// to opts.Retain instants.
func (e *Executor) RegisterWith(name string, plan query.Node, opts RegisterOptions) (*Query, error) {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.queries[name]; dup {
		return nil, fmt.Errorf("cq: query %q already registered", name)
	}
	if isSystemName(name) {
		return nil, fmt.Errorf("cq: query name %q: the sys$ prefix is reserved for system relations", name)
	}
	if opts.Retain < 0 {
		return nil, fmt.Errorf("cq: query %q: negative retention %d", name, opts.Retain)
	}
	outName := name
	if opts.Into != "" {
		// Mirror the Register-side guards for the materialized target: the
		// sys$ namespace stays reserved, and the name must not shadow an
		// existing relation, query, or the query being registered.
		if isSystemName(opts.Into) {
			return nil, fmt.Errorf("cq: query %q: INTO target %q: the sys$ prefix is reserved for system relations", name, opts.Into)
		}
		if opts.Into == name {
			return nil, fmt.Errorf("cq: query %q: INTO target must differ from the query name", name)
		}
		if _, taken := e.rels[opts.Into]; taken {
			return nil, fmt.Errorf("cq: query %q: INTO target %q collides with an existing relation", name, opts.Into)
		}
		if _, taken := e.queries[opts.Into]; taken {
			return nil, fmt.Errorf("cq: query %q: INTO target %q collides with a registered query", name, opts.Into)
		}
		outName = opts.Into
	}
	env := schemaEnv{e}
	outSch, err := plan.ResultSchema(env)
	if err != nil {
		return nil, fmt.Errorf("cq: query %q: %w", name, err)
	}
	if err := e.checkStreamsWindowed(plan, false); err != nil {
		return nil, fmt.Errorf("cq: query %q: %w", name, err)
	}
	_, infinite := plan.(*query.Stream)
	var out *stream.XDRelation
	if infinite {
		out = stream.NewInfinite(outSch.WithName(outName))
	} else {
		out = stream.NewFinite(outSch.WithName(outName))
	}
	if _, taken := e.rels[name]; taken {
		return nil, fmt.Errorf("cq: query name %q collides with a relation", name)
	}
	q := &Query{
		name:        name,
		plan:        plan,
		infinite:    infinite,
		out:         out,
		into:        opts.Into,
		retain:      opts.Retain,
		degradation: opts.Degradation,
		prevOutput:  map[string]value.Tuple{},
		invCache:    map[*query.Invoke]map[string][]value.Tuple{},
		streamPrev:  map[*query.Stream]map[string]value.Tuple{},
		actions:     query.NewActionSet(),
		lastDelta:   queryDelta{at: -1},
		evalGauge:   e.reg.Metrics().Gauge(obs.Key("cq.query.eval_ns", name)),
	}
	q.indexPlanNodes()
	e.computeHasActive(q)
	// Compile the incremental-evaluation program (delta.go). Every node
	// kind has a delta operator; what fails here despite a derivable
	// schema (an α constant of the wrong type) could not be re-evaluated
	// either, so the registration is refused rather than run differently.
	if q.delta, err = compileDelta(e, q); err != nil {
		return nil, fmt.Errorf("cq: query %q: %w", name, err)
	}
	e.queries[name] = q
	e.order = append(e.order, name)
	e.recordWindows(plan)
	// The output XD-Relation is itself part of the environment: queries
	// registered later may read it by name (derived relations / continuous
	// views). Within one tick, queries evaluate in registration order, so a
	// downstream consumer sees the producer's output for the same instant.
	e.rels[outName] = out
	e.producers[outName] = q
	// A materialized output is durable like a base relation: its events
	// flow to the WAL so dump→replay→recovery rebuilds it even though
	// replay re-derives the contents by re-evaluating the producer (see
	// pems.applyRecoveredEvent, which skips the logged events in favor of
	// the re-evaluation to avoid double-apply).
	if opts.Into != "" && e.dur != nil && !out.Ephemeral() {
		e.dur.AttachRelation(out)
	}
	return q, nil
}

// indexPlanNodes assigns every invoke and stream node its DFS-preorder
// index (durable node identity for WAL records and checkpoints).
func (q *Query) indexPlanNodes() {
	q.invIdx = map[*query.Invoke]int{}
	query.Walk(q.plan, func(n query.Node) {
		switch t := n.(type) {
		case *query.Invoke:
			q.invIdx[t] = len(q.invNodes)
			q.invNodes = append(q.invNodes, t)
		case *query.Stream:
			q.streamNodes = append(q.streamNodes, t)
		}
	})
}

// Query returns a registered continuous query by name.
func (e *Executor) Query(name string) (*Query, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	q, ok := e.queries[name]
	return q, ok
}

// QueryNames lists the registered continuous queries in registration order.
func (e *Executor) QueryNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.order...)
}

// RelationNames lists every relation the executor knows about (catalog
// tables, streams, and derived continuous-query outputs), sorted.
func (e *Executor) RelationNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.rels))
	for name := range e.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Unregister stops and removes a continuous query along with its derived
// output relation. It refuses to remove a producer whose output relation a
// still-registered query reads — silently dropping it would leave every
// consumer evaluating against a dangling base. Unregister the consumers
// first.
func (e *Executor) Unregister(name string) error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	q, ok := e.queries[name]
	if !ok {
		return fmt.Errorf("cq: unknown query %q", name)
	}
	out := q.OutName()
	var consumers []string
	for _, other := range e.order {
		if other == name {
			continue
		}
		for _, dep := range planBaseNames(e.queries[other].plan) {
			if dep == out {
				consumers = append(consumers, other)
				break
			}
		}
	}
	if len(consumers) > 0 {
		return fmt.Errorf("cq: cannot unregister query %q: its derived relation %q is read by registered queries [%s] — unregister those first",
			name, out, strings.Join(consumers, ", "))
	}
	delete(e.queries, name)
	delete(e.rels, out) // drop the derived output relation
	delete(e.producers, out)
	for i, n := range e.order {
		if n == name {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	return nil
}

// recordWindows updates the per-stream retention horizon from a plan's
// window operators (never shrinks: unregistered queries keep their horizon
// to stay conservative).
func (e *Executor) recordWindows(plan query.Node) {
	query.Walk(plan, func(n query.Node) {
		if w, ok := n.(*query.Window); ok {
			if base, ok := w.Child.(*query.Base); ok {
				p := service.Instant(w.Period)
				if p > e.maxWindow[base.Name] {
					e.maxWindow[base.Name] = p
				}
			}
		}
	})
}

// trimStreams drops events that nothing can reach any more, so every
// relation's log is bounded by retention rather than by the number of
// instants run:
//   - a stream under a window keeps its largest window period, plus one
//     instant of slack;
//   - a derived output, finite or infinite, keeps its RETAIN or, with
//     none, DefaultDerivedRetention instants: a finite output's log grows
//     with its churn, not with its content;
//   - a window over any relation holds that relation's trim back to the
//     window, since both the naive and the delta window read the log.
//
// Other relations are never trimmed (their history may still be inspected
// via At).
func (e *Executor) trimStreams(at service.Instant) {
	for name, x := range e.rels {
		var retain service.Instant
		if q := e.producers[name]; q != nil {
			retain = q.retain
			if retain == 0 {
				retain = DefaultDerivedRetention
			}
		}
		period, windowed := e.maxWindow[name]
		var horizon service.Instant
		switch {
		case windowed && retain > 0:
			horizon = min(at-period-1, at-retain+1)
		case windowed && x.Infinite():
			horizon = at - period - 1
		case retain > 0:
			horizon = at - retain + 1
		default:
			continue
		}
		if horizon > 0 {
			x.TrimBefore(horizon)
		}
	}
}

// checkStreamsWindowed walks the plan ensuring infinite base relations are
// directly wrapped by a Window operator.
func (e *Executor) checkStreamsWindowed(n query.Node, directlyUnderWindow bool) error {
	switch t := n.(type) {
	case *query.Base:
		x, ok := e.rels[t.Name]
		if !ok {
			return fmt.Errorf("unknown relation %q", t.Name)
		}
		if x.Infinite() && !directlyUnderWindow {
			return fmt.Errorf("stream %q must be accessed through a window operator (Section 4.2)", t.Name)
		}
		return nil
	case *query.Window:
		if _, ok := t.Child.(*query.Base); !ok {
			return fmt.Errorf("window operator applies to base streams, not %T", t.Child)
		}
		return e.checkStreamsWindowed(t.Child, true)
	}
	for _, c := range n.Children() {
		if err := e.checkStreamsWindowed(c, false); err != nil {
			return err
		}
	}
	return nil
}

// Tick advances the clock one instant: it pumps every source, then
// evaluates every registered query at the new instant, updating outputs and
// firing OnResult callbacks. It returns the instant just executed.
//
// Only tickMu is held across the tick; e.mu is taken briefly around field
// access, so Query/QueryNames/Relation readers and the metrics pollers
// never wait a whole tick out. WAL BeginTick/CommitTick still bracket
// everything the tick does, and queries evaluate in registration order (see
// evalTickQueries) so derived views keep reading their producer's
// same-instant output.
func (e *Executor) Tick() (service.Instant, error) {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	start := time.Now()
	e.mu.Lock()
	e.now++
	at := e.now
	qs := make([]*Query, len(e.order))
	for i, name := range e.order {
		qs[i] = e.queries[name]
	}
	sources := append([]Source(nil), e.sources...)
	dur := e.dur
	onCheckpoint := e.onCheckpoint
	skipPassive := e.coalesce && e.overranLast
	rels := make([]*stream.XDRelation, 0, len(e.rels))
	for _, x := range e.rels {
		rels = append(rels, x)
	}
	e.mu.Unlock()
	// The head-sampling decision for the whole tick: a sampled tick gets a
	// root span; everything below (query evals, operators, β tuples, wire
	// round trips) records as its descendants. An unsampled tick threads a
	// nil span and every instrumentation site below degrades to a nil check.
	tick := e.reg.Tracer().StartRoot("cq.tick")
	tick.SetAttrInt("instant", int64(at))
	defer tick.Finish()
	if dur != nil {
		if err := dur.BeginTick(at); err != nil {
			tick.SetAttr("error", err.Error())
			e.logTickError(tick, at, "", err)
			return at, fmt.Errorf("cq: wal begin at instant %d: %w", at, err)
		}
	}
	// Ingest buffers drain inside the WAL window (after BeginTick), so
	// drained events are durably attributed to this tick.
	if err := e.drainIngest(rels, at); err != nil {
		tick.SetAttr("error", err.Error())
		e.logTickError(tick, at, "", err)
		return at, fmt.Errorf("cq: ingest drain at instant %d: %w", at, err)
	}
	for _, src := range sources {
		if err := src(at); err != nil {
			tick.SetAttr("error", err.Error())
			e.logTickError(tick, at, "", err)
			return at, fmt.Errorf("cq: source at instant %d: %w", at, err)
		}
	}
	if err := e.evalTickQueries(qs, at, tick, skipPassive); err != nil {
		return at, err
	}
	e.mu.Lock()
	e.trimStreams(at)
	e.mu.Unlock()
	if dur != nil {
		due, err := dur.CommitTick(at)
		if err != nil {
			tick.SetAttr("error", err.Error())
			e.logTickError(tick, at, "", err)
			return at, fmt.Errorf("cq: wal commit at instant %d: %w", at, err)
		}
		if due && onCheckpoint != nil {
			e.mu.Lock()
			st := e.snapshotLocked()
			e.mu.Unlock()
			if err := onCheckpoint(st); err != nil {
				// Non-fatal: the log still covers everything; retried at the
				// next due tick.
				slog.Warn("cq: checkpoint failed", "instant", int64(at), "err", err.Error())
			}
		}
	}
	elapsed := time.Since(start)
	e.mu.Lock()
	e.recordLag(at)
	overran := e.tickBudget > 0 && elapsed > e.tickBudget
	e.overranLast = overran
	if overran {
		e.tickOverruns++
	}
	e.mu.Unlock()
	if overran {
		e.m.tickOverruns.Inc()
		tick.SetAttr("overrun", "true")
	}
	e.m.tickLast.Set(int64(elapsed))
	e.m.ticks.Inc()
	e.m.tickLatency.Observe(elapsed)
	return at, nil
}

// evalTickQueries evaluates one tick's queries in registration order. A
// query reading another registered query's output relation (a derived
// view) sees its producer's same-instant output, because registration
// order is topological: Register only accepts plans whose relations
// already exist. The first failing query ends the tick.
//
// skipPassive is the overload-coalescing signal: when set (only ever on a
// live tick following a budget overrun — replay never coalesces), queries
// that shedableQueries proves safe are skipped for this instant. A skipped
// query's cross-instant state is untouched, so its next evaluation emits
// the accumulated delta.
func (e *Executor) evalTickQueries(qs []*Query, at service.Instant, tick *trace.Span, skipPassive bool) error {
	var skip []bool
	if skipPassive {
		skip = shedableQueries(qs)
	}
	for i, q := range qs {
		if skip != nil && skip[i] {
			q.noteCoalesced()
			e.m.coalescedEvals.Inc()
			continue
		}
		if err := e.evalQuery(q, at, tick, nil); err != nil {
			tick.SetAttr("error", err.Error())
			e.logTickError(tick, at, q.name, err)
			return fmt.Errorf("cq: query %q at instant %d: %w", q.name, at, err)
		}
	}
	return nil
}

// planBaseNames collects every base-relation name a plan reads.
func planBaseNames(n query.Node) []string {
	var out []string
	query.Walk(n, func(n query.Node) {
		if b, ok := n.(*query.Base); ok {
			out = append(out, b.Name)
		}
	})
	return out
}

// logTickError emits a structured log line for a failed tick, correlated
// with the tick's span when the tick is sampled (trace_id/span_id attrs let
// the operator jump from the log line to /debug/trace).
func (e *Executor) logTickError(tick *trace.Span, at service.Instant, queryName string, err error) {
	attrs := append(tick.LogAttrs(),
		slog.Int64("instant", int64(at)),
		slog.String("err", err.Error()))
	if queryName != "" {
		attrs = append(attrs, slog.String("query", queryName))
	}
	slog.LogAttrs(context.Background(), slog.LevelError, "cq: tick failed", attrs...)
}

// LagNeverProduced is the cq.stream.lag gauge sentinel for a stream that
// has never produced an event. A distinct negative value — rather than the
// old `at+1` encoding, which after enough ticks is indistinguishable from a
// genuinely lagging stream — so dashboards and the health state machine can
// tell "silent since birth" from "went silent".
const LagNeverProduced int64 = -1

// recordLag publishes, per infinite XD-Relation, how many instants behind
// the clock its newest event is (0 = produced this instant,
// LagNeverProduced = never produced anything). e.mu is held.
func (e *Executor) recordLag(at service.Instant) {
	for name, x := range e.rels {
		if !x.Infinite() {
			continue
		}
		last := x.LastInstant()
		lag := int64(at - last)
		if last < 0 {
			lag = LagNeverProduced
		}
		g := e.lag[name]
		if g == nil {
			g = e.reg.Metrics().Gauge(obs.Key("cq.stream.lag", name))
			e.lag[name] = g
		}
		g.Set(lag)
	}
}

// RunUntil ticks until (and including) the given instant.
func (e *Executor) RunUntil(at service.Instant) error {
	for e.Now() < at {
		if _, err := e.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// evalQuery evaluates one query at one instant (tickMu held by the caller;
// e.mu is NOT held, so readers of the executor never wait on an evaluation).
// tick is the enclosing tick span (nil when the tick is unsampled). replay,
// non-nil during recovery, carries the tick's logged active-invocation
// outcomes; live ticks pass nil.
func (e *Executor) evalQuery(q *Query, at service.Instant, tick *trace.Span, replay ReplayLedger) error {
	ev := &evaluator{exec: e, q: q, at: at, replay: replay}
	ctx := e.NewContext(ev, at)
	ctx.Continuous = ev
	ev.ctx = ctx
	qspan := tick.Child("cq.query")
	qspan.SetAttr("query", q.name)
	ctx.Span = qspan
	// The query's degradation policy decides what β does with a failing
	// device; continuous queries default to SkipTuple so one flaky sensor
	// degrades a standing query to partial results instead of killing it.
	// Every failure is recorded on the query either way.
	ctx.Degradation = q.degradation
	if ctx.Degradation == resilience.Default {
		ctx.Degradation = resilience.SkipTuple
	}
	ctx.OnInvokeError = func(bp schema.BindingPattern, ref string, input value.Tuple, err error) error {
		q.recordInvokeError(query.InvokeError{BP: bp.ID(), Ref: ref, Input: input.Clone(), Err: err})
		return nil
	}
	// Evaluator selection: the compiled delta program unless the query is
	// pinned naive, in which case the plan re-evaluates through query.Node's
	// own Eval with ev supplying the instantaneous relations and the
	// time-aware operators. Both paths produce the same (result, cur,
	// inserted, deleted) quadruple — the differential test harness holds
	// them to bit-identical results and action sets.
	mode := q.EvaluationMode()
	useDelta := mode == modeDelta
	qspan.SetAttr("evaluator", mode)

	evalStart := time.Now()
	var (
		res               *algebra.XRelation
		cur               map[string]value.Tuple
		inserted, deleted []value.Tuple
		err               error
	)
	if useDelta {
		res, cur, inserted, deleted, err = ev.evalDelta()
	} else {
		res, err = ctx.Eval(q.plan)
	}
	evalElapsed := time.Since(evalStart)
	ctx.PublishObsStats()
	e.m.queryEvalTime.Observe(evalElapsed)
	q.evalGauge.Set(int64(evalElapsed))
	if err != nil {
		qspan.SetAttr("error", err.Error())
		qspan.Finish()
		return err
	}
	if useDelta {
		e.m.deltaTicks.Inc()
	} else {
		e.m.deltaFallbackTicks.Inc()
	}
	qspan.SetAttrInt("rows", int64(res.Len()))
	qspan.Finish()
	q.mu.Lock()
	q.lastRes = res
	q.lastEvalNS = int64(evalElapsed)
	q.stats.Active += ctx.Stats.Active
	q.stats.Passive += ctx.Stats.Passive
	q.stats.Memoized += ctx.Stats.Memoized
	q.stats.Coalesced += ctx.Stats.Coalesced
	if useDelta {
		q.deltaTicks++
	} else {
		q.naiveTicks++
	}
	q.mu.Unlock()
	for _, a := range ctx.Actions.Sorted() {
		q.actions.Add(a)
	}

	if !useDelta {
		// Delta the instantaneous result against the previous instant (the
		// incremental path derived all four pieces directly from the root
		// operator's delta).
		cur = keyed(res.Tuples())
		inserted, deleted = diffKeyed(q.prevOutput, cur)
	}
	sortTuples(inserted)
	sortTuples(deleted)
	if !q.infinite {
		// Publish this tick's output delta for downstream consumers: the
		// slices below are exactly what is applied to q.out, so a consumer's
		// deltaBase can ingest them directly (producerDelta) instead of
		// re-reading the relation's event log. Recorded on both evaluation
		// paths — a naive-pinned producer still feeds delta consumers.
		q.mu.Lock()
		q.lastDelta = queryDelta{at: at, ins: inserted, del: deleted}
		q.mu.Unlock()
	}
	if q.infinite {
		// Stream result: the instantaneous relation already IS the emitted
		// delta (the root streaming operator computed it); append each
		// emitted tuple.
		for _, t := range res.Sorted() {
			if err := q.out.Insert(at, t); err != nil {
				return err
			}
		}
	} else {
		for _, t := range inserted {
			if err := q.out.Insert(at, t); err != nil {
				return err
			}
		}
		for _, t := range deleted {
			if err := q.out.Delete(at, t); err != nil {
				return err
			}
		}
	}
	q.prevOutput = cur
	if q.OnResult != nil {
		q.OnResult(at, res, inserted, deleted)
	}
	return nil
}

func sortTuples(ts []value.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// keyed indexes a set of tuples by Key.
func keyed(ts []value.Tuple) map[string]value.Tuple {
	m := make(map[string]value.Tuple, len(ts))
	for _, t := range ts {
		m[t.Key()] = t
	}
	return m
}

// diffKeyed compares two keyed tuple sets: inserted holds the tuples of cur
// absent from prev, deleted those of prev absent from cur, both unordered.
func diffKeyed(prev, cur map[string]value.Tuple) (inserted, deleted []value.Tuple) {
	for k, t := range cur {
		if _, ok := prev[k]; !ok {
			inserted = append(inserted, t)
		}
	}
	for k, t := range prev {
		if _, ok := cur[k]; !ok {
			deleted = append(deleted, t)
		}
	}
	return inserted, deleted
}

// producerDelta returns the (inserts, deletes) another query applied to
// its finite output relation this tick — the cascade fast path a
// consumer's deltaBase takes instead of re-diffing the event log. It is
// only valid for a steady consecutive-tick step (from == at−1) when the
// producer itself evaluated at the same instant; any other shape (re-init,
// clock gap, producer coalesced under overload this instant) reports
// ok=false and the consumer falls back to the event log.
func (e *Executor) producerDelta(name string, from, at service.Instant) (ins, del []value.Tuple, ok bool) {
	if from != at-1 {
		return nil, nil, false
	}
	e.mu.Lock()
	q := e.producers[name]
	e.mu.Unlock()
	if q == nil || q.infinite {
		return nil, nil, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.lastDelta.at != at {
		return nil, nil, false
	}
	return q.lastDelta.ins, q.lastDelta.del, true
}

// evaluator is one (query, instant) evaluation. On the re-evaluation path it
// is what makes query.Node.Eval continuous: as the context's Environment it
// resolves a base leaf to the relation's instantaneous contents, and as its
// ContinuousHooks it gives W[·], S[·] and β their Section 4.2 semantics.
// The delta program's operators reach the same executor state through it.
type evaluator struct {
	exec *Executor
	q    *Query
	ctx  *query.Context
	at   service.Instant
	// replay is non-nil during recovery: the logged outcomes of this tick's
	// active invocations, consulted instead of re-firing them.
	replay ReplayLedger
}

// Relation implements query.Environment: a finite XD-Relation's
// instantaneous relation at the evaluation instant.
func (ev *evaluator) Relation(name string) (*algebra.XRelation, error) {
	x, ok := ev.exec.rels[name]
	if !ok {
		return nil, fmt.Errorf("unknown relation %q", name)
	}
	if x.Infinite() {
		return nil, fmt.Errorf("stream %q used without a window", name)
	}
	return algebra.New(x.Schema(), ev.instantTuples(x))
}

// EvalWindow implements query.ContinuousHooks: the tuples inserted into the
// base stream during the last Period instants.
func (ev *evaluator) EvalWindow(w *query.Window) (*algebra.XRelation, error) {
	base := w.Child.(*query.Base) // validated at registration
	x, ok := ev.exec.rels[base.Name]
	if !ok {
		return nil, fmt.Errorf("unknown relation %q", base.Name)
	}
	span := ev.ctx.Span.Child("cq.window")
	span.SetAttr("stream", base.Name)
	span.SetAttrInt("period", int64(w.Period))
	tuples := x.InsertedIn(ev.at-service.Instant(w.Period), ev.at)
	span.SetAttrInt("rows", int64(len(tuples)))
	span.Finish()
	return algebra.New(x.Schema(), tuples)
}

// EvalStream implements query.ContinuousHooks: what S[kind] emits at this
// instant given the child's instantaneous relation and the one remembered
// from the previous instant.
func (ev *evaluator) EvalStream(s *query.Stream, child *algebra.XRelation) (*algebra.XRelation, error) {
	cur := keyed(child.Tuples())
	emit := streamEmit(s.Kind, ev.q.streamPrev[s], cur)
	ev.q.streamPrev[s] = cur
	sortTuples(emit)
	if span := ev.ctx.Span.Child("cq.stream"); span != nil {
		span.SetAttr("kind", s.Kind.String())
		span.SetAttrInt("emitted", int64(len(emit)))
		span.Finish()
	}
	return algebra.New(child.Schema(), emit)
}

// streamEmit is S[kind] over one instant: the child's insertions or
// deletions relative to the previous instant, or (heartbeat) everything
// present now.
func streamEmit(kind query.StreamKind, prev, cur map[string]value.Tuple) []value.Tuple {
	if kind == query.StreamHeartbeat {
		emit := make([]value.Tuple, 0, len(cur))
		for _, t := range cur {
			emit = append(emit, t)
		}
		return emit
	}
	inserted, deleted := diffKeyed(prev, cur)
	if kind == query.StreamInsertion {
		return inserted
	}
	return deleted
}

// instantTuples returns an XD-Relation's multiset at the evaluation
// instant (algebra.New and the delta gates reduce it to a set).
func (ev *evaluator) instantTuples(x *stream.XDRelation) []value.Tuple {
	if x.LastInstant() <= ev.at {
		return x.Current()
	}
	return x.At(ev.at)
}

// EvalInvoke implements query.ContinuousHooks with the Section 4.2
// invocation semantics: only tuples newly inserted into the operand trigger
// invocations; persisting tuples reuse the outputs computed when they first
// appeared. The cache is keyed by input-tuple identity and pruned to the
// current operand.
func (ev *evaluator) EvalInvoke(node *query.Invoke, child *algebra.XRelation) (*algebra.XRelation, error) {
	bp, err := child.Schema().FindBP(node.Proto, node.ServiceAttr)
	if err != nil {
		return nil, err
	}
	cache := ev.q.invCache[node]
	if cache == nil {
		cache = map[string][]value.Tuple{}
	}
	next := make(map[string][]value.Tuple, child.Len())

	// We reuse algebra.Invoke but answer its work list through the §4.2
	// invocation cache. The cache key is (bp, ref, input): the realized
	// outputs depend only on that triple, and a persisting operand tuple
	// produces the same triple at every instant, so it is never re-invoked.
	cachingInvoker := &deltaInvoker{ev: ev, node: node, cache: cache, next: next}

	// On a sampled tick, wrap the operator in a "cq.invoke" span and make
	// it the parent of the per-tuple β spans for the duration of the call
	// (evaluation walks the plan sequentially, so swapping ctx.Span is
	// safe; the dispatch pool only reads it).
	opSpan := ev.ctx.Span.Child("cq.invoke")
	if opSpan != nil {
		opSpan.SetAttr("bp", bp.ID())
		saved := ev.ctx.Span
		ev.ctx.Span = opSpan
		defer func() { ev.ctx.Span = saved }()
	}
	out, err := algebra.Invoke(child, bp, cachingInvoker)
	if opSpan != nil {
		opSpan.SetAttrInt("cache_hits", cachingInvoker.hits)
		opSpan.SetAttrInt("cache_misses", cachingInvoker.misses)
		if err != nil {
			opSpan.SetAttr("error", err.Error())
		}
		opSpan.Finish()
	}
	if err != nil {
		return nil, err
	}
	ev.q.invCache[node] = next
	return out, nil
}

// deltaInvoker caches invocation results across instants keyed by
// (bp, ref, input). Hits count neither as physical invocations nor as
// actions — a persisting tuple triggers no new action (Section 4.2).
type deltaInvoker struct {
	ev    *evaluator
	node  *query.Invoke
	cache map[string][]value.Tuple // previous instant
	next  map[string][]value.Tuple // being built for this instant
	// Per-operator-call cache effectiveness, reported as attributes on the
	// sampled "cq.invoke" operator span.
	hits, misses int64
}

// InvokeAll implements algebra.Invoker.
func (d *deltaInvoker) InvokeAll(bp schema.BindingPattern, jobs []algebra.InvokeJob) []algebra.InvokeResult {
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = bp.ID() + "|" + j.Ref + "|" + j.Input.Key()
	}
	out, hits, misses := d.ev.invokeCached(d.node, bp, jobs, keys, d.cache, d.next)
	d.hits += hits
	d.misses += misses
	return out
}

// invokeCached is the §4.2 miss path shared by the naive deltaInvoker and
// the incremental deltaInvoke operator. A job whose key is in next (this
// instant's cache) or prev (the previous instant's, carried over into
// next) is a hit. Misses sharing a key fold into one attempt, so each
// distinct action is attempted at most once per instant even when the
// attempt fails. Passive attempts go to the dispatcher in one call; active
// ones fire one at a time through invokePhysical, stopping at the first
// fatal outcome. Cacheable outcomes enter next, so a job's outcome is
// cacheable exactly when its key is in next afterwards. Results are
// positional over jobs.
func (ev *evaluator) invokeCached(node *query.Invoke, bp schema.BindingPattern, jobs []algebra.InvokeJob, keys []string, prev, next map[string][]value.Tuple) (out []algebra.InvokeResult, hits, misses int64) {
	out = make([]algebra.InvokeResult, len(jobs))
	miss := make([]int, 0, len(jobs)) // job indexes, one attempt per distinct key
	var dups []int                    // job indexes folded into an earlier miss
	var first map[string]int          // missed key → its attempt's job index, from the 2nd miss on
	for i, k := range keys {
		rows, ok := next[k]
		if !ok {
			if rows, ok = prev[k]; ok {
				next[k] = rows
			}
		}
		if ok {
			out[i].Rows = rows
			hits++
			continue
		}
		if len(miss) > 0 {
			if first == nil {
				first = map[string]int{keys[miss[0]]: miss[0]}
			}
			if _, ok := first[k]; ok {
				dups = append(dups, i)
				hits++
				continue
			}
			first[k] = i
		}
		miss = append(miss, i)
	}
	misses = int64(len(miss))
	ev.exec.m.invokeCacheHits.Add(hits)
	ev.exec.m.invokeCacheMisses.Add(misses)
	switch {
	case len(miss) == 0:
	case bp.Active():
		for _, i := range miss {
			rows, cacheable, err := ev.invokePhysical(node, bp, jobs[i:i+1])
			out[i] = algebra.InvokeResult{Rows: rows, Err: err}
			if err != nil {
				break
			}
			if cacheable {
				next[keys[i]] = rows
			}
		}
	default:
		attempt := jobs
		if len(miss) < len(jobs) {
			attempt = make([]algebra.InvokeJob, len(miss))
			for k, i := range miss {
				attempt[k] = jobs[i]
			}
		}
		for k, res := range ev.ctx.InvokeAll(bp, attempt) {
			i := miss[k]
			out[i] = res
			// Absorbed failures pass their stand-in rows through WITHOUT
			// being cached, so the tuple retries next instant.
			if res.Err == nil && !res.Absorbed() {
				next[keys[i]] = res.Rows
			}
		}
	}
	for _, i := range dups {
		out[i] = out[first[keys[i]]]
	}
	return out, hits, misses
}

// invokePhysical fires one active β invocation, the one-element work list
// job: replay-ledger consultation, the effectful-once WAL bracket, the call
// itself through the dispatcher, and the outcome-unknown pin. cacheable
// reports whether the rows may enter the cross-instant invocation cache
// (false for absorbed failures and unknown replay outcomes — those retry
// next instant).
func (ev *evaluator) invokePhysical(node *query.Invoke, bp schema.BindingPattern, job []algebra.InvokeJob) (rows []value.Tuple, cacheable bool, err error) {
	ref, input := job[0].Ref, job[0].Input
	if ev.replay != nil {
		key := bp.ID() + "|" + ref + "|" + input.Key()
		if ent, ok := ev.replay[key]; ok {
			// The action fired (or at least durably intended to) before the
			// crash: it joins the action set and counts as physical, but is
			// NEVER re-fired (Definition 8 — recovery must not duplicate
			// actions on the environment).
			ev.ctx.Actions.Add(query.Action{BP: bp.ID(), Ref: ref, Input: input.Clone()})
			ev.ctx.CountActive()
			if ent.Completed && ent.OK {
				return ent.Rows, true, nil
			}
			// Failed or unknown outcome: behave like an absorbed failure —
			// contribute no rows and stay uncached, so the live retry at the
			// next instant (itself in the log) replays identically.
			return nil, false, nil
		}
		// No ledger entry means the intent never became durable, so the call
		// never fired live; fall through and fire it for real.
	}

	logActive := ev.replay == nil && ev.exec.dur != nil
	var nodeIdx int
	if logActive {
		nodeIdx = ev.q.invIdx[node]
		// Effectful-once: the intent must be durable BEFORE the physical
		// call. If it cannot be persisted, firing would risk an invisible
		// duplicate after a crash — abort the invocation instead.
		if err := ev.exec.dur.ActiveIntent(ev.q.name, nodeIdx, bp.ID(), ref, input, ev.at); err != nil {
			return nil, false, fmt.Errorf("durable intent for %s on %s: %w", bp.ID(), ref, err)
		}
	}
	res := ev.ctx.InvokeAll(bp, job)[0]
	// Federation (Definition 8): an active request whose outcome is unknown
	// — sent to a peer, answer lost — may have fired. It must never be
	// re-sent (the transport already refused to), never re-fired at a
	// replica, and never retried at the next instant.
	outcomeUnknown := errors.Is(res.Cause, resilience.ErrOutcomeUnknown)
	if logActive && !outcomeUnknown {
		ok := res.Err == nil && !res.Absorbed()
		var out []value.Tuple
		if ok {
			out = res.Rows
		}
		// A failed completion append degrades this call to an orphan intent
		// on recovery — the safe direction (attempted, never re-fired).
		_ = ev.exec.dur.ActiveResult(ev.q.name, nodeIdx, bp.ID(), ref, input, ev.at, ok, out)
	}
	// outcomeUnknown intentionally skips ActiveResult: the intent stays an
	// ORPHAN in the WAL, so recovery replays it as attempted-never-refire
	// (SeedActive pins it) — the durable form of the live pin below.
	if res.Err != nil {
		return nil, false, res.Err
	}
	if outcomeUnknown {
		// Live pin: cache the stand-in rows (nothing for SkipTuple, an
		// all-NULL fill for NullFill) so the persisting tuple does NOT
		// re-invoke next instant. This is the one absorbed failure that must
		// not retry — a retry could duplicate the action on the environment.
		return res.Rows, true, nil
	}
	// An absorbed failure's stand-in rows pass through (nothing for
	// SkipTuple, an all-NULL fill for NullFill) WITHOUT being cacheable, so
	// the tuple is retried at the next instant.
	return res.Rows, !res.Absorbed(), nil
}
