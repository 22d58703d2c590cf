// Tick-level overload protection: bounded ingest drains, a tick deadline
// with overrun detection (Options.TickBudget), and optional coalescing of
// passive-only queries when the previous tick overran its budget
// (Options.Coalesce).
//
// The coalescing invariant is the algebra's: a query whose plan contains an
// active β — or whose output feeds one, directly or through any chain of
// derived views — is NEVER skipped, so the Definition 8 action set under
// overload is exactly the unloaded action set. Only pure-passive leaves of
// the dependency graph may be coalesced, and their skipped instants fold
// into the delta emitted at the next evaluated instant.
package cq

import (
	"time"

	"serena/internal/obs"
	"serena/internal/service"
	"serena/internal/stream"
)

// OverloadSettings returns the tick budget (0 = none) and whether
// coalescing is enabled (Options.TickBudget and Options.Coalesce).
func (e *Executor) OverloadSettings() (budget time.Duration, coalescing bool) {
	return e.tickBudget, e.coalesce
}

// TickOverruns returns how many ticks exceeded the budget so far.
func (e *Executor) TickOverruns() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tickOverruns
}

// Coalesced returns how many instants this query was skipped under
// overload coalescing.
func (q *Query) Coalesced() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.coalesced
}

func (q *Query) noteCoalesced() {
	q.mu.Lock()
	q.coalesced++
	q.mu.Unlock()
}

// computeHasActive resolves each β node's prototype against the registry
// and marks the query when any is active. An unknown prototype counts as
// active: better to never shed a query we cannot prove passive.
func (e *Executor) computeHasActive(q *Query) {
	for _, inv := range q.invNodes {
		p, err := e.reg.Prototype(inv.Proto)
		if err != nil || p.Active {
			q.hasActive = true
			return
		}
	}
	q.hasActive = false
}

// shedableQueries returns, for one tick's query snapshot, which queries may
// be coalesced: passive-only queries whose output feeds no query with an
// active β, directly or transitively. Dependencies always point at earlier
// registrations, so one reverse pass propagates protection from every
// active query down to everything it reads.
// The dependency index is keyed by each query's OUTPUT relation name (the
// INTO target when set), matching how consumers reference their producers.
func shedableQueries(qs []*Query) []bool {
	idxOf := make(map[string]int, len(qs))
	for i, q := range qs {
		idxOf[q.OutName()] = i
	}
	protected := make([]bool, len(qs))
	for i, q := range qs {
		protected[i] = q.hasActive
	}
	for i := len(qs) - 1; i >= 0; i-- {
		if !protected[i] {
			continue
		}
		for _, dep := range planBaseNames(qs[i].plan) {
			if j, ok := idxOf[dep]; ok && j < i {
				protected[j] = true
			}
		}
	}
	shedable := make([]bool, len(qs))
	for i := range qs {
		shedable[i] = !protected[i]
	}
	return shedable
}

// ingestObs is one relation's ingest series: tuples shed by its overload
// policy, and the buffer depth the last tick drained. offered is the
// relation's offered count already published.
type ingestObs struct {
	shed    *obs.Counter
	depth   *obs.Gauge
	offered int64
}

// drainIngest moves every relation's buffered producer tuples into the
// relation at the tick instant (after WAL BeginTick, before sources), so
// drained events are logged inside this tick's WAL window. It publishes
// each buffer's counts: stream.ingest.offered and stream.ingest.shed grow
// by what the relation counted since the last tick, and
// stream.ingest.depth{rel} reads the depth this tick drained.
func (e *Executor) drainIngest(rels []*stream.XDRelation, at service.Instant) error {
	for _, r := range rels {
		n, err := r.DrainIngest(at)
		if err != nil {
			return err
		}
		e.m.ingestDrained.Add(int64(n))
		offered, shed := r.IngestStats()
		if offered == 0 {
			continue // no buffer, or nothing offered yet
		}
		st := e.ingest[r.Name()]
		if st == nil {
			m := e.reg.Metrics()
			st = &ingestObs{shed: m.Counter(obs.Key("stream.ingest.shed", r.Name())), depth: m.Gauge(obs.Key("stream.ingest.depth", r.Name()))}
			e.ingest[r.Name()] = st
		}
		newShed := shed - st.shed.Value()
		e.m.ingestOffered.Add(offered - st.offered)
		e.m.ingestShed.Add(newShed)
		st.shed.Add(newShed)
		st.offered = offered
		st.depth.Set(int64(n))
	}
	return nil
}
