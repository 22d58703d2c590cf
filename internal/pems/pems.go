// Package pems assembles the Pervasive Environment Management System of
// the paper's Figure 1 (Gripay et al., EDBT 2010, Section 5): the core
// Environment Resource Manager (central service registry + discovery
// manager reaching distributed Local ERMs), the Extended Table Manager
// (Serena DDL over XD-Relations) and the Query Processor (one-shot and
// continuous queries in the Serena Algebra Language or Serena SQL, with
// optional logical optimization).
package pems

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"serena/internal/algebra"
	"serena/internal/catalog"
	"serena/internal/cq"
	"serena/internal/ddl"
	"serena/internal/discovery"
	"serena/internal/optimizer"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/rewrite"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
	"serena/internal/wal"
)

// PEMS is one Pervasive Environment Management System instance.
type PEMS struct {
	registry *service.Registry
	catalog  *catalog.Catalog
	exec     *cq.Executor
	manager  *discovery.Manager

	mu         sync.Mutex
	wal        *wal.Manager
	discoRels  []*discoveryRelation
	feedStates map[string]*feedState
	tickerStop chan struct{}
	tickerDone chan struct{}

	// explainOut receives the output of EXPLAIN [ANALYZE] DDL statements
	// (Config.ExplainOutput; io.Discard when unset).
	explainOut io.Writer
	// openErr is the failure to open Config.DataDir at construction;
	// Recover reports it.
	openErr error
	// metricsShutdown stops the HTTP observability endpoint, if running.
	metricsShutdown func()
}

// Option configures a PEMS at construction.
type Option func(*options)

type options struct {
	cfg   Config
	bus   discovery.Bus
	disco []discovery.Option
}

// WithConfig sets the engine's configuration (see Config); without it the
// engine runs the zero Config.
func WithConfig(cfg Config) Option {
	return func(o *options) { o.cfg = cfg }
}

// WithDiscovery attaches a discovery bus: Local ERM nodes announcing on the
// bus are dialed and their services registered centrally.
func WithDiscovery(bus discovery.Bus, opts ...discovery.Option) Option {
	return func(o *options) { o.bus, o.disco = bus, opts }
}

// New builds a PEMS and applies its Config: the registry and executor
// knobs, self-telemetry, and durability over Config.DataDir (opened here
// and restored by Recover, which also reports a failure to open it). The
// catalog's relations are automatically registered with the continuous
// executor.
func New(opts ...Option) *PEMS {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	cfg := o.cfg
	reg := service.NewRegistry(cfg.Registry)
	p := &PEMS{
		registry:   reg,
		catalog:    catalog.New(reg),
		exec:       cq.NewExecutor(reg, cfg.Executor),
		feedStates: map[string]*feedState{},
		explainOut: cfg.ExplainOutput,
	}
	if p.explainOut == nil {
		p.explainOut = io.Discard
	}
	p.catalog.OnCreateRelation = func(x *stream.XDRelation) {
		_ = p.exec.AddRelation(x)
	}
	if o.bus != nil {
		p.manager = discovery.NewManager(reg, o.bus, o.disco...)
	}
	// Telemetry and durability both precede the embedder's Recover: a
	// WAL-logged query over a sys$ relation re-registers only if the
	// relation exists.
	if cfg.Telemetry {
		// A new executor holds no sys$ relation yet, so only a bug fails this.
		if _, err := p.EnableSelfTelemetry(cq.TelemetryOptions{}); err != nil {
			panic(fmt.Sprintf("pems: self-telemetry on a new engine: %v", err))
		}
	}
	if cfg.DataDir != "" {
		p.openErr = p.EnableDurability(cfg.DataDir, cfg.WAL)
	}
	if p.manager != nil {
		p.manager.Start()
	}
	return p
}

// Close stops the real-time ticker (if running), discovery, and the HTTP
// observability endpoint. It closes every relation's ingest buffer, so a
// producer blocked on backpressure returns an error instead of waiting for
// a tick that no longer comes. With durability enabled it writes a final
// checkpoint and closes the WAL, so a clean shutdown restarts without any
// log replay.
func (p *PEMS) Close() {
	p.StopTicker()
	for _, name := range p.exec.RelationNames() {
		if x, ok := p.exec.Relation(name); ok {
			x.CloseIngest()
		}
	}
	if p.manager != nil {
		p.manager.Stop()
	}
	p.closeDurability()
	p.mu.Lock()
	shutdown := p.metricsShutdown
	p.metricsShutdown = nil
	p.mu.Unlock()
	if shutdown != nil {
		shutdown()
	}
}

// Registry returns the central service registry (the core ERM's view of
// the environment).
func (p *PEMS) Registry() *service.Registry { return p.registry }

// Catalog returns the Extended Table Manager.
func (p *PEMS) Catalog() *catalog.Catalog { return p.catalog }

// Executor returns the continuous Query Processor.
func (p *PEMS) Executor() *cq.Executor { return p.exec }

// Discovery returns the discovery manager, or nil without WithDiscovery.
func (p *PEMS) Discovery() *discovery.Manager { return p.manager }

// SetInvocationParallelism bounds how many service invocations one
// invocation operator may run concurrently, for both one-shot and
// continuous queries (Section 5.1: invocations are handled asynchronously;
// sound because services are deterministic at a given instant, Section
// 3.2). Values < 2 keep the sequential default.
func (p *PEMS) SetInvocationParallelism(n int) { p.exec.SetParallelism(n) }

// ExecuteDDL runs a Serena DDL script. Data statements are stamped at the
// next tick instant so running continuous queries observe them on the
// following Tick. REGISTER QUERY bodies (Serena SQL or Serena Algebra
// Language), parsed in place with the script, are planned and registered
// with the query processor with optimization enabled, so a single script
// can declare a whole application (Section 5.1: the Query Processor
// "allows to register queries"). A REGISTER QUERY's ON ERROR, INTO and
// RETAIN clauses are fixed at registration, before the query's first
// evaluation; changing one is UNREGISTER QUERY followed by a new REGISTER
// QUERY, both logged.
func (p *PEMS) ExecuteDDL(src string) error {
	stmts, err := ddl.Parse(src)
	if err != nil {
		return err
	}
	at := p.exec.Now() + 1
	for i, st := range stmts {
		switch t := st.(type) {
		case *ddl.RegisterQuery:
			opts := cq.RegisterOptions{Into: t.Into, Retain: service.Instant(t.Retain)}
			if opts.Degradation, err = resilience.ParsePolicy(t.OnError); err == nil {
				_, err = p.register(t.Name, &t.Query, true, opts)
			}
		case *ddl.UnregisterQuery:
			err = p.UnregisterQuery(t.Name)
		case *ddl.Explain:
			err = p.runExplain(t)
		default:
			if err = p.catalog.Execute(st, at); err == nil {
				p.logCatalogDDL(st, at)
			}
		}
		if err != nil {
			slog.Error("pems: ddl statement failed", "statement", i+1, "err", err.Error())
			return fmt.Errorf("pems: statement %d: %w", i+1, err)
		}
	}
	slog.Debug("pems: ddl script executed", "statements", len(stmts), "at", int64(at))
	return nil
}

// OneShot parses and evaluates a one-shot query, SAL or Serena SQL,
// against the current state of the environment (Definition 7; evaluation
// instant = the last executed tick, or 0 before any tick).
func (p *PEMS) OneShot(src string) (*query.Result, error) {
	q, err := parseQuery(src, false)
	if err != nil {
		return nil, err
	}
	ctx := p.oneShotContext()
	n, err := q.Plan(ctx.Env)
	if err != nil {
		return nil, err
	}
	return query.EvaluateCtx(n, ctx)
}

// OneShotSQL is OneShot: the front end tells Serena SQL from SAL by the
// first tokens.
func (p *PEMS) OneShotSQL(src string) (*query.Result, error) { return p.OneShot(src) }

// oneShotContext is the context every one-shot evaluation runs under, and
// whose environment planning reads: the current instant (the last executed
// tick, or 0 before any tick), invoking services with the executor's
// parallelism and batch size.
func (p *PEMS) oneShotContext() *query.Context {
	at := p.exec.Now()
	if at < 0 {
		at = 0
	}
	return p.exec.NewContext(p.Env(at), at)
}

// parseQuery reads a query text with the one front end (ddl.ParseQuery).
// An EXPLAIN [ANALYZE] prefix is refused unless explain is set: a text that
// asks for a plan is never evaluated or registered, and only Explain and
// ExplainAnalyze take one, ignoring it.
func parseQuery(src string, explain bool) (*ddl.Query, error) {
	st, err := ddl.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	if ex, ok := st.(*ddl.Explain); ok {
		if !explain {
			return nil, fmt.Errorf("pems: an EXPLAIN query is neither run nor registered; Explain and ExplainAnalyze take it")
		}
		return &ex.Query, nil
	}
	return st.(*ddl.Query), nil
}

// RegisterQuery compiles a query (Serena SQL or Serena Algebra Language),
// optionally optimizes it (Table 5 rewrites under the invocation-dominant
// cost model) and registers it as a continuous query.
// The ON ERROR, INTO and RETAIN clauses are REGISTER QUERY DDL
// (ExecuteDDL).
func (p *PEMS) RegisterQuery(name, src string, optimize bool) (*cq.Query, error) {
	q, err := parseQuery(src, false)
	if err != nil {
		return nil, err
	}
	return p.register(name, q, optimize, cq.RegisterOptions{})
}

// register plans, optionally optimizes and registers a parsed continuous
// query, then logs the registration.
func (p *PEMS) register(name string, body *ddl.Query, optimize bool, opts cq.RegisterOptions) (*cq.Query, error) {
	env := p.oneShotContext().Env
	n, err := body.Plan(env)
	if err != nil {
		return nil, err
	}
	if optimize {
		// Optimization failures (e.g. missing statistics) fall back to the
		// unoptimized plan — never block registration.
		if plan, err := newOptimizer(env).Optimize(n, env); err == nil {
			n = plan.Root
		}
	}
	q, err := p.exec.RegisterWith(name, n, opts)
	if err == nil {
		p.logQueryDDL(q)
	}
	return q, err
}

// newOptimizer plans over env's statistics with the Table 5 rewrites and
// the invocation-dominant cost model.
func newOptimizer(env query.Environment) *optimizer.Optimizer {
	return optimizer.New(rewrite.DefaultRules(), optimizer.EnvStats{Env: env}, optimizer.DefaultCostModel())
}

// Explanation reports how a query would be planned: the original and
// optimized plans in SAL syntax, the applied rewrite steps, and the
// estimated costs under the invocation-dominant cost model.
type Explanation struct {
	Original   string
	Optimized  string
	Steps      []rewrite.Step
	CostBefore float64
	CostAfter  float64
}

// Explain plans a query, SAL or Serena SQL, without executing it. A
// leading EXPLAIN [ANALYZE] prefix is accepted and ignored.
func (p *PEMS) Explain(src string) (*Explanation, error) {
	q, err := parseQuery(src, true)
	if err != nil {
		return nil, err
	}
	return explain(q, p.oneShotContext().Env)
}

func explain(q *ddl.Query, env query.Environment) (*Explanation, error) {
	n, err := q.Plan(env)
	if err != nil {
		return nil, err
	}
	plan, err := newOptimizer(env).Optimize(n, env)
	if err != nil {
		return nil, err
	}
	return &Explanation{
		Original:   n.String(),
		Optimized:  plan.Root.String(),
		Steps:      plan.Steps,
		CostBefore: plan.CostBefore,
		CostAfter:  plan.CostAfter,
	}, nil
}

// runExplain executes an EXPLAIN [ANALYZE] DDL statement, writing the plan
// (or trace) to Config.ExplainOutput.
func (p *PEMS) runExplain(st *ddl.Explain) error {
	w := p.explainOut
	if st.Analyze {
		rep, err := analyze(&st.Query, p.oneShotContext())
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, rep.Plan)
		return err
	}
	ex, err := explain(&st.Query, p.oneShotContext().Env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "original:  %s\n", ex.Original)
	for _, step := range ex.Steps {
		fmt.Fprintf(w, "  %-28s -> %s\n", step.Rule, step.Result)
	}
	fmt.Fprintf(w, "optimized: %s\n", ex.Optimized)
	fmt.Fprintf(w, "estimated cost: %.0f -> %.0f\n", ex.CostBefore, ex.CostAfter)
	return nil
}

// TraceReport is the outcome of an EXPLAIN ANALYZE run: the annotated
// physical plan (one line per operator with calls, input/output
// cardinalities, and wall/self times) plus the result it was measured on.
type TraceReport struct {
	Plan   string
	Result *query.Result
}

// ExplainAnalyze actually executes a query with every operator profiled
// (EXPLAIN ANALYZE semantics): the plan is evaluated at the current instant
// with a query.Profile installed, and rendered with measured per-operator
// cardinalities and timings. A leading EXPLAIN [ANALYZE] prefix is
// accepted and ignored. Beware: active invocations in the query DO fire —
// EXPLAIN ANALYZE runs the query for real.
func (p *PEMS) ExplainAnalyze(src string) (*TraceReport, error) {
	q, err := parseQuery(src, true)
	if err != nil {
		return nil, err
	}
	return analyze(q, p.oneShotContext())
}

func analyze(q *ddl.Query, ctx *query.Context) (*TraceReport, error) {
	n, err := q.Plan(ctx.Env)
	if err != nil {
		return nil, err
	}
	ctx.Profile = query.NewProfile()
	// A failed evaluation still carries a partial trace (the error is
	// annotated on the operator that raised it): res is nil then.
	res, err := query.EvaluateCtx(n, ctx)
	return &TraceReport{Plan: ctx.Profile.Render(n), Result: res}, err
}

// Env returns a snapshot query.Environment at the given instant over ALL
// relations of this PEMS — catalog tables as well as executor-only streams
// (poll streams, feed streams, discovery relations).
func (p *PEMS) Env(at service.Instant) query.Environment {
	return pemsEnv{p: p, at: at}
}

type pemsEnv struct {
	p  *PEMS
	at service.Instant
}

// Relation implements query.Environment.
func (e pemsEnv) Relation(name string) (*algebra.XRelation, error) {
	x, ok := e.p.exec.Relation(name)
	if !ok {
		return nil, fmt.Errorf("pems: unknown relation %q", name)
	}
	var tuples []value.Tuple
	if x.LastInstant() <= e.at {
		tuples = x.Current()
	} else {
		tuples = x.At(e.at)
	}
	return algebra.New(x.Schema(), tuples)
}

// UnregisterQuery removes a continuous query.
func (p *PEMS) UnregisterQuery(name string) error {
	if err := p.exec.Unregister(name); err != nil {
		return err
	}
	p.logUnregisterDDL(name)
	return nil
}

// Tick advances the environment clock one instant.
func (p *PEMS) Tick() (service.Instant, error) { return p.exec.Tick() }

// StartTicker drives the discrete clock in real time: one Tick per
// interval (the paper's prototype executes continuous queries "in a
// real-time fashion", Section 5.1), plus a discovery-lease sweep. Tick
// errors are passed to onErr (which may be nil). Starting twice errors;
// StopTicker (or Close) stops the clock.
func (p *PEMS) StartTicker(interval time.Duration, onErr func(error)) error {
	if interval <= 0 {
		return fmt.Errorf("pems: ticker interval must be positive")
	}
	p.mu.Lock()
	if p.tickerStop != nil {
		p.mu.Unlock()
		return fmt.Errorf("pems: ticker already running")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	p.tickerStop, p.tickerDone = stop, done
	p.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if _, err := p.Tick(); err != nil {
					slog.Error("pems: ticker tick failed", "err", err.Error())
					if onErr != nil {
						onErr(err)
					}
				}
				p.SweepExpiredNodes()
			}
		}
	}()
	return nil
}

// StopTicker stops the real-time clock (idempotent) and waits for the
// ticker goroutine to exit.
func (p *PEMS) StopTicker() {
	p.mu.Lock()
	stop, done := p.tickerStop, p.tickerDone
	p.tickerStop, p.tickerDone = nil, nil
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// SweepExpiredNodes expires discovery leases (call periodically in live
// deployments).
func (p *PEMS) SweepExpiredNodes() []string {
	if p.manager == nil {
		return nil
	}
	return p.manager.SweepExpired(time.Now())
}

// ---------------------------------------------------------------------------
// Service-discovery relations (Section 5.1: the Query Processor
// "continuously updates some specific XD-Relations so that they represent
// the set of services implementing some given prototypes").

// discoveryRelation syncs one XD-Relation with the set of services
// implementing a prototype.
type discoveryRelation struct {
	rel     *stream.XDRelation
	proto   string
	svcIdx  int // real coordinate of the service attribute
	rowFor  func(ref string) value.Tuple
	current map[string]value.Tuple // ref → row currently in the relation
}

// AddDiscoveryRelation declares an XD-Relation whose rows track the
// services implementing the given prototype. The relation schema must
// carry the service attribute named svcAttr; rowFor builds the row for a
// newly discovered reference (nil → the row is the reference plus NULLs).
// Rows are reconciled at every tick, so services appearing or disappearing
// are reflected at the next instant — live, while continuous queries run.
func (p *PEMS) AddDiscoveryRelation(sch *schema.Extended, svcAttr, protoName string, rowFor func(ref string) value.Tuple) (*stream.XDRelation, error) {
	if !sch.IsReal(svcAttr) {
		return nil, fmt.Errorf("pems: discovery relation %s: %q must be a real attribute", sch.Name(), svcAttr)
	}
	if _, err := p.registry.Prototype(protoName); err != nil {
		return nil, err
	}
	rel := stream.NewFinite(sch)
	if err := p.exec.AddRelation(rel); err != nil {
		return nil, err
	}
	svcIdx := sch.RealIndex(svcAttr)
	if rowFor == nil {
		width := sch.RealArity()
		rowFor = func(ref string) value.Tuple {
			row := make(value.Tuple, width)
			for i := range row {
				row[i] = value.NewNull()
			}
			row[svcIdx] = value.NewService(ref)
			return row
		}
	}
	d := &discoveryRelation{rel: rel, proto: protoName, svcIdx: svcIdx, rowFor: rowFor, current: map[string]value.Tuple{}}
	p.mu.Lock()
	p.discoRels = append(p.discoRels, d)
	first := len(p.discoRels) == 1
	p.mu.Unlock()
	if first {
		p.exec.AddSource(p.syncDiscoveryRelations)
	}
	return rel, nil
}

// syncDiscoveryRelations reconciles every discovery relation with the
// registry at the given instant.
func (p *PEMS) syncDiscoveryRelations(at service.Instant) error {
	p.mu.Lock()
	rels := append([]*discoveryRelation(nil), p.discoRels...)
	p.mu.Unlock()
	for _, d := range rels {
		want := map[string]bool{}
		for _, ref := range p.registry.Implementing(d.proto) {
			want[ref] = true
		}
		for ref := range want {
			if _, ok := d.current[ref]; ok {
				continue
			}
			row := d.rowFor(ref)
			if err := d.rel.Insert(at, row); err != nil {
				return err
			}
			d.current[ref] = row
		}
		for ref, row := range d.current {
			if want[ref] {
				continue
			}
			if err := d.rel.Delete(at, row); err != nil {
				return err
			}
			delete(d.current, ref)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Poll streams: materialize sensor-style passive prototypes into streams.

// AddPollStream creates an infinite XD-Relation fed by invoking, at every
// tick, the given passive prototype (with empty input) on every service
// implementing it. Each output tuple becomes a stream tuple
// (svcAttr, metaAttrs…, prototype outputs…). The paper's temperatures
// stream (Section 1.2) is AddPollStream("temperatures", "getTemperature",
// "sensor", [location STRING], locationOf).
func (p *PEMS) AddPollStream(name, protoName, svcAttr string, metaAttrs []schema.Attribute, meta func(ref string) []value.Value) (*stream.XDRelation, error) {
	proto, err := p.registry.Prototype(protoName)
	if err != nil {
		return nil, err
	}
	if proto.Active {
		return nil, fmt.Errorf("pems: poll stream %s: prototype %s is active; only passive prototypes may be polled", name, protoName)
	}
	if proto.Input.Arity() != 0 {
		return nil, fmt.Errorf("pems: poll stream %s: prototype %s takes inputs; poll streams need input-free prototypes", name, protoName)
	}
	attrs := []schema.ExtAttr{{Attribute: schema.Attribute{Name: svcAttr, Type: value.Service}}}
	for _, a := range metaAttrs {
		attrs = append(attrs, schema.ExtAttr{Attribute: a})
	}
	for _, a := range proto.Output.Attrs() {
		attrs = append(attrs, schema.ExtAttr{Attribute: a})
	}
	sch, err := schema.NewExtended(name, attrs, nil)
	if err != nil {
		return nil, err
	}
	rel := stream.NewInfinite(sch)
	if err := p.exec.AddRelation(rel); err != nil {
		return nil, err
	}
	if meta == nil {
		meta = func(string) []value.Value {
			out := make([]value.Value, len(metaAttrs))
			for i := range out {
				out[i] = value.NewNull()
			}
			return out
		}
	}
	p.exec.AddSource(func(at service.Instant) error {
		for _, ref := range p.registry.Implementing(protoName) {
			rows, err := p.registry.Invoke(protoName, ref, nil, at)
			if err != nil {
				continue // unreachable device this tick
			}
			md := meta(ref)
			for _, row := range rows {
				tuple := make(value.Tuple, 0, 1+len(md)+len(row))
				tuple = append(tuple, value.NewService(ref))
				tuple = append(tuple, md...)
				tuple = append(tuple, row...)
				if err := rel.Insert(at, tuple); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return rel, nil
}

// ---------------------------------------------------------------------------
// Feed streams (Section 5.2, RSS scenario): wrapper services are polled and
// their new items inserted into a stream.

type feedState struct {
	rel   *stream.XDRelation
	proto string
	since map[string]service.Instant
}

// FeedStreamSchema returns the schema used by AddFeedStream:
// (feed SERVICE, itemId INTEGER, title STRING, published INTEGER).
func FeedStreamSchema(name string) *schema.Extended {
	return schema.MustExtended(name, []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "feed", Type: value.Service}},
		{Attribute: schema.Attribute{Name: "itemId", Type: value.Int}},
		{Attribute: schema.Attribute{Name: "title", Type: value.String}},
		{Attribute: schema.Attribute{Name: "published", Type: value.Int}},
	}, nil)
}

// AddFeedStream creates an infinite XD-Relation fed by polling, at every
// tick, all services implementing the getItems prototype (the RSS wrapper
// of Section 5.2). A tuple is inserted per new feed item.
func (p *PEMS) AddFeedStream(name string) (*stream.XDRelation, error) {
	rel := stream.NewInfinite(FeedStreamSchema(name))
	if err := p.exec.AddRelation(rel); err != nil {
		return nil, err
	}
	fs := &feedState{rel: rel, proto: "getItems", since: map[string]service.Instant{}}
	p.mu.Lock()
	p.feedStates[name] = fs
	p.mu.Unlock()
	p.exec.AddSource(func(at service.Instant) error { return p.pollFeeds(fs, at) })
	return rel, nil
}

func (p *PEMS) pollFeeds(fs *feedState, at service.Instant) error {
	for _, ref := range p.registry.Implementing(fs.proto) {
		since, known := fs.since[ref]
		if !known {
			since = -1
		}
		rows, err := p.registry.Invoke(fs.proto, ref, value.Tuple{value.NewInt(int64(since))}, at)
		if err != nil {
			continue // unreachable feed this tick: retry next tick
		}
		for _, row := range rows {
			tuple := value.Tuple{value.NewService(ref), row[0], row[1], row[2]}
			if err := fs.rel.Insert(at, tuple); err != nil {
				return err
			}
		}
		fs.since[ref] = at
	}
	return nil
}
