package pems

import (
	"errors"
	"fmt"
	"log/slog"
	"strings"

	"serena/internal/catalog"
	"serena/internal/cq"
	"serena/internal/ddl"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/sal"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
	"serena/internal/wal"
)

// Durability glue: EnableDurability opens a write-ahead log under a data
// directory and wires it into the continuous executor; Recover restores the
// latest checkpoint and replays the log tail, after which the environment
// resumes exactly where it stopped — windows, delta-caches and the action
// set (Definition 8) included. Active invocations recorded as fired are
// never fired again; passive ones are recomputed freely (Section 3.2:
// services are deterministic at a given instant, so recomputation at the
// logged instant is sound).

// EnableDurability opens (or creates) the WAL + checkpoint store in dir and
// attaches it to this PEMS, recording the log's metrics and recovery trace
// in the engine's registry (opts.Registry is set to it); New does the same
// for Config.DataDir. Call it before Recover, which must run before the
// first tick. The embedder
// re-registers its code services, poll streams and discovery relations
// between the two calls — checkpoints only carry DDL-declared schema; live
// implementations are the embedder's to restore. Everything that changes a
// query's result is DDL and therefore logged: a query's ON ERROR, INTO and
// RETAIN clauses, a relation's ON OVERLOAD buffer. The operational knobs of
// Config (parallelism, tick budget, timeouts, retries, breakers, telemetry)
// are not; the embedder passes the same Config to New on every start.
func (p *PEMS) EnableDurability(dir string, opts wal.Options) error {
	opts.Registry = p.registry
	m, err := wal.Open(dir, opts)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if p.wal != nil {
		p.mu.Unlock()
		m.Close()
		return fmt.Errorf("pems: durability already enabled (%s)", p.wal.Dir())
	}
	p.wal = m
	p.mu.Unlock()
	p.exec.SetDurability(m)
	p.exec.OnCheckpoint(func(st cq.CheckpointState) error {
		return m.Checkpoint(p.catalog.DumpSchema(), st)
	})
	return nil
}

// WAL returns the durability manager, or nil when durability is off.
func (p *PEMS) WAL() *wal.Manager {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wal
}

// Recover restores the last checkpoint (if any), replays the WAL tail, and
// writes a fresh post-recovery checkpoint so the next restart does not
// replay the same log again. It must be called exactly once, after
// durability is enabled (Config.DataDir or EnableDurability) and after the
// embedder's code registrations, before the first tick. It also reports a
// failure of New to open Config.DataDir.
func (p *PEMS) Recover() (wal.Info, error) {
	if p.openErr != nil {
		return wal.Info{}, p.openErr
	}
	m := p.WAL()
	if m == nil {
		return wal.Info{}, fmt.Errorf("pems: durability not enabled")
	}
	info, err := m.Recover(wal.RecoveryHooks{
		Restore:    p.restoreCheckpoint,
		ApplyDDL:   p.applyRecoveredDDL,
		ApplyEvent: p.applyRecoveredEvent,
		ReplayTick: func(at service.Instant, ledger cq.ReplayLedger) error {
			return p.exec.ReplayTick(at, ledger, nil)
		},
		SeedActive: p.exec.SeedActive,
		AdvanceTo:  p.exec.AdvanceTo,
	})
	if err != nil {
		return info, err
	}
	p.resyncDiscoveryCurrent()
	p.resyncFeedSince()
	if !info.Fresh {
		// Checkpointing right away bounds the divergence window: orphan
		// intents and replayed ticks become part of the snapshot instead of
		// being re-derived from the log on every restart.
		if cerr := p.Checkpoint(); cerr != nil {
			slog.Warn("pems: post-recovery checkpoint failed", "err", cerr.Error())
		}
	}
	return info, nil
}

// Checkpoint forces a durable snapshot now. Tick-count-driven checkpoints
// (wal.Options.CheckpointEvery) continue independently.
func (p *PEMS) Checkpoint() error {
	m := p.WAL()
	if m == nil {
		return fmt.Errorf("pems: durability not enabled")
	}
	return m.Checkpoint(p.catalog.DumpSchema(), p.exec.Snapshot())
}

// restoreCheckpoint applies a checkpoint: catalog DDL first (prototypes,
// scripted services, relations), then query re-registration from the logged
// post-optimization plans, then the executor state snapshot.
func (p *PEMS) restoreCheckpoint(catalogDDL string, st *cq.CheckpointState) error {
	stmts, err := ddl.Parse(catalogDDL)
	if err != nil {
		return fmt.Errorf("pems: checkpoint catalog: %w", err)
	}
	for i, s := range stmts {
		if err := p.restoreStatement(s, st.At); err != nil {
			return fmt.Errorf("pems: checkpoint catalog statement %d: %w", i+1, err)
		}
	}
	for _, qs := range st.Queries {
		plan, err := sal.Parse(qs.Source)
		if err == nil {
			err = p.recoverQuery(qs.Name, plan, qs.OnError, qs.Into, qs.Retain)
		}
		if err != nil {
			return fmt.Errorf("pems: checkpoint query %s: %w", qs.Name, err)
		}
	}
	return p.exec.Restore(*st)
}

// restoreStatement executes one recovered DDL statement, tolerating
// declarations the embedder already made in code before Recover: an
// identical prototype redeclaration is a no-op, a live service
// implementation wins over the checkpoint's stub, and an existing relation
// keeps its (restored or embedder-built) instance.
func (p *PEMS) restoreStatement(s ddl.Statement, at service.Instant) error {
	switch t := s.(type) {
	case *ddl.CreateService:
		err := p.catalog.Execute(s, at)
		if errors.Is(err, service.ErrDuplicate) {
			return nil
		}
		return err
	case *ddl.CreateRelation:
		if _, err := p.catalog.Relation(t.Name); err == nil {
			return nil
		}
		return p.catalog.Execute(s, at)
	default:
		return p.catalog.Execute(s, at)
	}
}

// recoverQuery re-registers one continuous query from its logged plan: the
// POST-optimization plan, registered verbatim (no second optimizer pass):
// node indices in the invocation cache and the active-β ledger are
// positions in that exact plan.
func (p *PEMS) recoverQuery(name string, plan query.Node, onError, into string, retain service.Instant) error {
	pol, err := resilience.ParsePolicy(onError)
	if err != nil {
		return err
	}
	_, err = p.exec.RegisterWith(name, plan, cq.RegisterOptions{Into: into, Retain: retain, Degradation: pol})
	return err
}

// applyRecoveredDDL replays one logged DDL statement.
func (p *PEMS) applyRecoveredDDL(text string, at service.Instant) error {
	stmts, err := ddl.Parse(text)
	if err != nil {
		return fmt.Errorf("pems: recovered ddl: %w", err)
	}
	for _, s := range stmts {
		switch t := s.(type) {
		case *ddl.RegisterQuery:
			plan, err := t.Plan(p.oneShotContext().Env)
			if err == nil {
				err = p.recoverQuery(t.Name, plan, t.OnError, t.Into, service.Instant(t.Retain))
			}
			if err != nil {
				return fmt.Errorf("pems: recovered query %s: %w", t.Name, err)
			}
		case *ddl.UnregisterQuery:
			if err := p.exec.Unregister(t.Name); err != nil {
				return err
			}
		default:
			if err := p.restoreStatement(s, at); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyRecoveredEvent re-applies one logged base-relation event.
// Events logged for materialized derived relations (INTO targets) are
// skipped: tail replay re-evaluates the producer query at each logged tick,
// which re-derives those contents — applying the logged events too would
// double-apply every insert and delete.
func (p *PEMS) applyRecoveredEvent(rel string, kind stream.EventKind, at service.Instant, t value.Tuple) error {
	if p.exec.Materialized(rel) {
		return nil
	}
	x, ok := p.exec.Relation(rel)
	if !ok {
		return fmt.Errorf("pems: recovered event for unknown relation %q", rel)
	}
	if kind == stream.Delete {
		return x.Delete(at, t)
	}
	return x.Insert(at, t)
}

// resyncDiscoveryCurrent rebuilds each discovery relation's ref→row index
// from its (restored) relation contents. The index is built in code at
// AddDiscoveryRelation time and starts empty; after a restore the relation
// itself already holds rows, and without this resync the next
// syncDiscoveryRelations pass would insert every still-present service a
// second time.
func (p *PEMS) resyncDiscoveryCurrent() {
	p.mu.Lock()
	rels := append([]*discoveryRelation(nil), p.discoRels...)
	p.mu.Unlock()
	for _, d := range rels {
		d.current = map[string]value.Tuple{}
		for _, row := range d.rel.Current() {
			if d.svcIdx < len(row) {
				d.current[row[d.svcIdx].ServiceRef()] = row
			}
		}
	}
}

// resyncFeedSince fast-forwards each feed stream's per-feed high-water mark
// to the recovered instant. The marks live in memory only; left at their
// fresh-start default (-1) the first post-recovery poll would re-fetch every
// item the restored stream relation already holds and insert them all a
// second time.
func (p *PEMS) resyncFeedSince() {
	now := p.exec.Now()
	if now == 0 {
		return // fresh environment: let the first poll fetch from the start
	}
	p.mu.Lock()
	states := make([]*feedState, 0, len(p.feedStates))
	for _, fs := range p.feedStates {
		states = append(states, fs)
	}
	p.mu.Unlock()
	for _, fs := range states {
		for _, ref := range p.registry.Implementing(fs.proto) {
			if _, ok := fs.since[ref]; !ok {
				fs.since[ref] = now
			}
		}
	}
}

// logQueryDDL records a continuous-query registration in the WAL. The
// post-optimization plan is logged, not the user's original source, so
// replay re-registers the exact plan whose node indices the rest of the log
// refers to.
func (p *PEMS) logQueryDDL(q *cq.Query) {
	m := p.WAL()
	if m == nil {
		return
	}
	var onErr string
	if pol := q.Degradation(); pol != resilience.Default {
		onErr = " ON ERROR " + pol.String()
	}
	var into string
	if q.Into() != "" {
		into = " INTO " + q.Into()
		if q.Retain() > 0 {
			into += fmt.Sprintf(" RETAIN %d INSTANTS", q.Retain())
		}
	}
	text := fmt.Sprintf("REGISTER QUERY %s%s%s AS %s;", q.Name(), onErr, into, q.Plan().String())
	if err := m.AppendDDL(text, p.exec.Now()+1); err != nil {
		slog.Warn("pems: wal ddl append failed", "query", q.Name(), "err", err.Error())
	}
}

// logUnregisterDDL records a query removal in the WAL.
func (p *PEMS) logUnregisterDDL(name string) {
	m := p.WAL()
	if m == nil {
		return
	}
	text := fmt.Sprintf("UNREGISTER QUERY %s;", name)
	if err := m.AppendDDL(text, p.exec.Now()+1); err != nil {
		slog.Warn("pems: wal ddl append failed", "query", name, "err", err.Error())
	}
}

// logCatalogDDL records one successfully executed catalog statement in the
// WAL, re-rendered from the live objects so replay sees canonical text.
// INSERT/DELETE are deliberately absent: data changes ride the relation
// event hooks, and logging them twice would double-apply on replay.
func (p *PEMS) logCatalogDDL(st ddl.Statement, at service.Instant) {
	m := p.WAL()
	if m == nil {
		return
	}
	var text string
	switch t := st.(type) {
	case *ddl.CreatePrototype:
		if proto, err := p.registry.Prototype(t.Name); err == nil {
			text = proto.String()
		}
	case *ddl.CreateService:
		text = fmt.Sprintf("SERVICE %s IMPLEMENTS %s;", t.Ref, strings.Join(t.Prototypes, ", "))
	case *ddl.CreateRelation:
		if x, err := p.catalog.Relation(t.Name); err == nil {
			text = catalog.RelationDDL(x)
		}
	case *ddl.Drop:
		text = fmt.Sprintf("DROP RELATION %s;", t.Name)
	}
	if text == "" {
		return
	}
	if err := m.AppendDDL(text, at); err != nil {
		slog.Warn("pems: wal ddl append failed", "err", err.Error())
	}
}

// closeDurability writes a final checkpoint (only when the manager actually
// recovered — an un-recovered executor would snapshot an empty environment
// over a good checkpoint) and closes the WAL.
func (p *PEMS) closeDurability() {
	p.mu.Lock()
	m := p.wal
	p.wal = nil
	p.mu.Unlock()
	if m == nil {
		return
	}
	if m.Recovered() {
		if err := m.Checkpoint(p.catalog.DumpSchema(), p.exec.Snapshot()); err != nil {
			slog.Warn("pems: final checkpoint failed", "err", err.Error())
		}
	}
	if err := m.Close(); err != nil {
		slog.Warn("pems: wal close failed", "err", err.Error())
	}
}
