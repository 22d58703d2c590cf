package cq

import (
	"fmt"
	"log/slog"
	"sort"

	"serena/internal/query"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/trace"
	"serena/internal/value"
)

// Durability is the executor's hook into a write-ahead log (implemented by
// wal.Manager). When set, the executor brackets every tick with
// BeginTick/CommitTick, base-relation events flow to the log through
// AttachRelation, and every ACTIVE β invocation is logged as a durable
// intent before the physical call and a completion after it — the
// effectful-once protocol that lets recovery skip already-fired active
// invocations (Definition 8) while freely recomputing passive ones.
type Durability interface {
	// AttachRelation starts logging the relation's events. Base relations
	// and materialized (INTO) derived outputs are attached; plain derived
	// query outputs are recomputed on replay instead.
	AttachRelation(x *stream.XDRelation)
	// BeginTick logs the start of instant at.
	BeginTick(at service.Instant) error
	// CommitTick logs the end of instant at and flushes per the fsync
	// policy. checkpointDue asks the executor to snapshot its state for a
	// periodic checkpoint.
	CommitTick(at service.Instant) (checkpointDue bool, err error)
	// ActiveIntent makes an active invocation durable BEFORE it fires. An
	// error means the intent could not be persisted; the invocation must
	// not proceed.
	ActiveIntent(queryName string, node int, bp, ref string, input value.Tuple, at service.Instant) error
	// ActiveResult logs the invocation's outcome (ok=false covers both
	// physical failure and absorbed degradation). rows are the realized
	// outputs on success.
	ActiveResult(queryName string, node int, bp, ref string, input value.Tuple, at service.Instant, ok bool, rows []value.Tuple) error
}

// CheckpointState is the executor's entire cross-tick state: every
// relation's event log and multiset, and every query's delta-cache,
// streaming-operator memory, previous output, statistics and action set.
// Restoring it into a fresh executor (after re-registering the same
// queries) resumes continuous execution exactly where the snapshot was
// taken.
type CheckpointState struct {
	At        service.Instant
	Relations []RelationState
	Queries   []QueryState
}

// RelationState snapshots one XD-Relation.
type RelationState struct {
	Name    string
	Derived bool // a continuous query's output relation
	LastAt  service.Instant
	Events  []stream.Event
	Current []stream.Counted
}

// QueryState snapshots one registered continuous query. Source is the
// registered plan in SAL syntax (already optimized — re-register it with
// optimization off so invoke-node indexes stay stable).
type QueryState struct {
	Name       string
	Source     string
	OnError    string          // degradation policy DDL spelling
	Into       string          // materialized output relation ("" = none)
	Retain     service.Instant // explicit RETAIN horizon (0 = none)
	PrevOutput []value.Tuple
	InvCache   []InvCacheEntry
	StreamPrev []StreamPrevEntry
	Stats      query.InvokeStats
	Actions    []query.Action
}

// InvCacheEntry is one Section 4.2 delta-cache entry: the (bp, ref, input)
// key and the realized rows, attached to an invoke node by its DFS-preorder
// index in the plan.
type InvCacheEntry struct {
	Node int
	Key  string
	Rows []value.Tuple
}

// StreamPrevEntry is one tuple of a streaming operator's previous-instant
// snapshot, attached to the stream node by DFS-preorder index.
type StreamPrevEntry struct {
	Node  int
	Tuple value.Tuple
}

// LedgerEntry is the replayed outcome of one active invocation within a
// tick. Completed=false means an orphan intent: the call may or may not
// have reached the service, so the action counts as attempted but is never
// re-fired.
type LedgerEntry struct {
	Completed bool
	OK        bool
	Rows      []value.Tuple
}

// ReplayLedger maps action keys (bp|ref|inputKey) to their logged outcomes
// for one replayed tick.
type ReplayLedger map[string]LedgerEntry

// SetDurability attaches a write-ahead log to the executor. Call it before
// the first tick; existing base relations are attached immediately, later
// ones as they are added.
func (e *Executor) SetDurability(d Durability) {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dur = d
	if d == nil {
		return
	}
	for name, x := range e.rels {
		if q := e.producers[name]; q != nil && q.into == "" {
			continue // plain derived outputs are recomputed on replay, not logged
		}
		if x.Ephemeral() {
			continue // sys$ telemetry relations are never WAL-logged
		}
		d.AttachRelation(x)
	}
}

// OnCheckpoint installs the callback invoked (with the executor lock held,
// at a tick boundary) whenever the durability layer reports a checkpoint is
// due. The callback persists the snapshot; a failure is logged and retried
// at the next tick.
func (e *Executor) OnCheckpoint(fn func(CheckpointState) error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onCheckpoint = fn
}

// Snapshot captures the executor's full durable state at a consistent
// point (between ticks — tickMu excludes a tick mutating it mid-copy).
func (e *Executor) Snapshot() CheckpointState {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked()
}

func (e *Executor) snapshotLocked() CheckpointState {
	st := CheckpointState{At: e.now}
	names := make([]string, 0, len(e.rels))
	for name := range e.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		x := e.rels[name]
		if x.Ephemeral() {
			// sys$ telemetry relations carry no durable state: excluded from
			// checkpoints, re-seeded by the scraper after recovery.
			continue
		}
		derived := e.producers[name] != nil
		events, current, lastAt := x.StateSnapshot()
		st.Relations = append(st.Relations, RelationState{
			Name: name, Derived: derived, LastAt: lastAt, Events: events, Current: current,
		})
	}
	for _, name := range e.order {
		q := e.queries[name]
		q.mu.Lock()
		stats := q.stats
		q.mu.Unlock()
		qs := QueryState{
			Name:    name,
			Source:  q.plan.String(),
			OnError: q.degradation.String(),
			Into:    q.into,
			Retain:  q.retain,
			Stats:   stats,
			Actions: q.actions.Sorted(),
		}
		keys := make([]string, 0, len(q.prevOutput))
		for k := range q.prevOutput {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			qs.PrevOutput = append(qs.PrevOutput, q.prevOutput[k])
		}
		for i, inv := range q.invNodes {
			cache := q.invCache[inv]
			ckeys := make([]string, 0, len(cache))
			for k := range cache {
				ckeys = append(ckeys, k)
			}
			sort.Strings(ckeys)
			for _, k := range ckeys {
				qs.InvCache = append(qs.InvCache, InvCacheEntry{Node: i, Key: k, Rows: cache[k]})
			}
		}
		for i, sn := range q.streamNodes {
			prev := q.streamPrev[sn]
			pkeys := make([]string, 0, len(prev))
			for k := range prev {
				pkeys = append(pkeys, k)
			}
			sort.Strings(pkeys)
			for _, k := range pkeys {
				qs.StreamPrev = append(qs.StreamPrev, StreamPrevEntry{Node: i, Tuple: prev[k]})
			}
		}
		st.Queries = append(st.Queries, qs)
	}
	return st
}

// Restore loads a checkpoint snapshot into the executor. The same queries
// must already be re-registered (from QueryState.Source, unoptimized) and
// base relations re-created — catalog relations via the checkpoint's DDL,
// code-created ones by the embedding application. Unknown non-derived
// relations are skipped with a warning so an embedder that dropped a code
// relation does not brick recovery.
func (e *Executor) Restore(st CheckpointState) error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.now = st.At
	for _, rs := range st.Relations {
		x, ok := e.rels[rs.Name]
		if !ok {
			if rs.Derived {
				return fmt.Errorf("cq: restore: derived relation %q has no registered query", rs.Name)
			}
			slog.Warn("cq: restore: skipping unknown relation (re-create code-defined relations before recovery)",
				"relation", rs.Name)
			continue
		}
		x.RestoreState(rs.Events, rs.Current, rs.LastAt)
	}
	for _, qs := range st.Queries {
		q, ok := e.queries[qs.Name]
		if !ok {
			return fmt.Errorf("cq: restore: query %q not registered", qs.Name)
		}
		q.prevOutput = make(map[string]value.Tuple, len(qs.PrevOutput))
		for _, t := range qs.PrevOutput {
			q.prevOutput[t.Key()] = t
		}
		q.invCache = map[*query.Invoke]map[string][]value.Tuple{}
		for _, ce := range qs.InvCache {
			if ce.Node < 0 || ce.Node >= len(q.invNodes) {
				return fmt.Errorf("cq: restore: query %q: invoke node %d out of range (plan changed?)", qs.Name, ce.Node)
			}
			inv := q.invNodes[ce.Node]
			cache := q.invCache[inv]
			if cache == nil {
				cache = map[string][]value.Tuple{}
				q.invCache[inv] = cache
			}
			cache[ce.Key] = ce.Rows
		}
		q.streamPrev = map[*query.Stream]map[string]value.Tuple{}
		for _, se := range qs.StreamPrev {
			if se.Node < 0 || se.Node >= len(q.streamNodes) {
				return fmt.Errorf("cq: restore: query %q: stream node %d out of range (plan changed?)", qs.Name, se.Node)
			}
			sn := q.streamNodes[se.Node]
			prev := q.streamPrev[sn]
			if prev == nil {
				prev = map[string]value.Tuple{}
				q.streamPrev[sn] = prev
			}
			prev[se.Tuple.Key()] = se.Tuple
		}
		q.mu.Lock()
		q.stats = qs.Stats
		q.mu.Unlock()
		q.actions = query.NewActionSet()
		for _, a := range qs.Actions {
			q.actions.Add(a)
		}
		// Delta operator state (window multisets, join indexes, aggregate
		// accumulators) is not serialized: it is a pure function of the
		// restored relations and the maps above, so invalidating the program
		// makes the first post-restore tick rebuild it — with the restored
		// invocation cache (including SeedActive's orphan pins) keeping
		// active β invocations from re-firing.
		q.delta.invalidate()
	}
	return nil
}

// ReplayTick re-executes one logged tick during recovery. The caller has
// already applied the tick's base-relation events; sources are NOT pumped
// (their effects are those events). Queries re-evaluate exactly as live,
// except that active invocations consult the ledger: logged ones are
// replayed from their recorded outcome instead of re-firing.
func (e *Executor) ReplayTick(at service.Instant, ledger ReplayLedger, parent *trace.Span) error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.mu.Lock()
	if at <= e.now {
		now := e.now
		e.mu.Unlock()
		return fmt.Errorf("cq: replay tick %d not after current instant %d", at, now)
	}
	// A gap (at > now+1) is fine: the skipped instants were ticks that
	// failed live without committing — their clock advance is replayed by
	// AdvanceTo when their orphans are seeded.
	e.now = at
	order := append([]string(nil), e.order...)
	qs := make([]*Query, len(order))
	for i, name := range order {
		qs[i] = e.queries[name]
	}
	e.mu.Unlock()
	span := parent.Child("cq.replay.tick")
	span.SetAttrInt("instant", int64(at))
	defer span.Finish()
	// Replay stays sequential regardless of query parallelism: recovery
	// must reproduce the logged tick deterministically.
	for i, q := range qs {
		if err := e.evalQuery(q, at, span, ledger); err != nil {
			span.SetAttr("error", err.Error())
			return fmt.Errorf("cq: replay query %q at instant %d: %w", order[i], at, err)
		}
	}
	e.mu.Lock()
	e.trimStreams(at)
	e.mu.Unlock()
	return nil
}

// AdvanceTo moves the clock forward without evaluating anything — used
// when replay encounters a tick that started but never committed live (it
// consumed its instant, so recovery must too). Never moves backward.
func (e *Executor) AdvanceTo(at service.Instant) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if at > e.now {
		e.now = at
	}
}

// SeedActive pins one recovered active invocation whose tick never
// committed (an orphan). The action enters the query's action set and
// counts as a physical invocation — it was attempted live. A completed
// successful call seeds its rows into the delta-cache so the re-executed
// tick reuses them; an orphan intent (outcome unknown) is pinned with no
// rows, which blocks any re-fire while its input tuple persists
// (Definition 8: never duplicate an action). A completed FAILED call is
// deliberately not cached — live semantics retry failed invocations at the
// next instant, and that retry's own log records replay it faithfully.
func (e *Executor) SeedActive(queryName string, node int, bp, ref string, input value.Tuple, completed, ok bool, rows []value.Tuple) {
	e.mu.Lock()
	defer e.mu.Unlock()
	q, found := e.queries[queryName]
	if !found || node < 0 || node >= len(q.invNodes) {
		slog.Warn("cq: recovery: dropping unmatched active-invocation record",
			"query", queryName, "node", node, "bp", bp, "ref", ref)
		return
	}
	q.actions.Add(query.Action{BP: bp, Ref: ref, Input: input.Clone()})
	q.mu.Lock()
	q.stats.Active++
	q.mu.Unlock()
	if completed && !ok {
		return
	}
	inv := q.invNodes[node]
	cache := q.invCache[inv]
	if cache == nil {
		cache = map[string][]value.Tuple{}
		q.invCache[inv] = cache
	}
	key := bp + "|" + ref + "|" + input.Key()
	if completed && ok {
		cache[key] = rows
	} else {
		cache[key] = nil
	}
}
