// Package stream implements eXtended Dynamic relations — XD-Relations —
// the continuous half of the Serena framework (Gripay et al., EDBT 2010,
// Section 4): time-indexed multisets of tuples over an extended relation
// schema, in the style of CQL. A finite XD-Relation supports insertions and
// deletions and has, at every instant, a finite instantaneous relation; an
// infinite XD-Relation is an append-only stream queried through windows.
package stream

import (
	"fmt"
	"sort"
	"sync"

	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
)

// EventKind tags insertions and deletions.
type EventKind uint8

// Event kinds.
const (
	Insert EventKind = iota
	Delete
)

// Event is one change to an XD-Relation at a given instant.
type Event struct {
	At    service.Instant
	Kind  EventKind
	Tuple value.Tuple
}

// XDRelation is a dynamic relation: a mapping from time instants to
// multisets of tuples over an extended schema (Section 4.1). It is safe for
// concurrent use. Events may only be appended at non-decreasing instants.
type XDRelation struct {
	mu       sync.RWMutex
	sch      *schema.Extended
	infinite bool
	events   []Event // ordered by At
	lastAt   service.Instant
	// current multiset of a finite relation: tuple key → (tuple, count).
	// Nil for a stream, whose retained event log is its whole state.
	current map[string]*entry
	// onEvent, when set, observes every accepted event in log order (the
	// durability layer appends them to its write-ahead log). Called with
	// the relation lock held; the callback must not re-enter the relation.
	onEvent func(Event)
	// ingest, when configured via SetOverloadPolicy, bounds the producer
	// path with a per-relation staging buffer drained once per tick (see
	// ingest.go). It has its own lock; x.mu only guards the pointer.
	ingest *ingestState
	// ephemeral relations (the sys$ self-telemetry feeds) are excluded
	// from durability: never WAL-attached, never checkpointed, re-seeded
	// by their source after recovery.
	ephemeral bool
}

type entry struct {
	tuple value.Tuple
	count int
}

// NewFinite creates a finite XD-Relation (a dynamic table: insertions and
// deletions allowed, instantaneous relation always finite).
func NewFinite(sch *schema.Extended) *XDRelation {
	return &XDRelation{sch: sch, current: make(map[string]*entry), lastAt: -1}
}

// NewInfinite creates an infinite XD-Relation (an append-only stream).
func NewInfinite(sch *schema.Extended) *XDRelation {
	return &XDRelation{sch: sch, infinite: true, lastAt: -1}
}

// Schema returns the extended relation schema.
func (x *XDRelation) Schema() *schema.Extended { return x.sch }

// Infinite reports whether the XD-Relation is an append-only stream.
func (x *XDRelation) Infinite() bool { return x.infinite }

// Name returns the schema's relation symbol.
func (x *XDRelation) Name() string { return x.sch.Name() }

// MarkEphemeral flags the relation as excluded from durability (WAL and
// checkpoints). Used by the self-telemetry subsystem for sys$ relations,
// whose contents are re-seeded from live engine state after recovery.
func (x *XDRelation) MarkEphemeral() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ephemeral = true
}

// Ephemeral reports whether the relation is excluded from durability.
func (x *XDRelation) Ephemeral() bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.ephemeral
}

// LastInstant returns the instant of the latest event, or -1 when empty.
func (x *XDRelation) LastInstant() service.Instant {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.lastAt
}

// Insert appends a tuple at the given instant. Instants must be
// non-decreasing across all events.
func (x *XDRelation) Insert(at service.Instant, t value.Tuple) error {
	c, err := x.sch.RealRel().Conforms(t)
	if err != nil {
		return fmt.Errorf("stream: %s: %w", x.Name(), err)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if at < x.lastAt {
		return fmt.Errorf("stream: %s: event at instant %d before last instant %d", x.Name(), at, x.lastAt)
	}
	x.lastAt = at
	ev := Event{At: at, Kind: Insert, Tuple: c}
	x.events = append(x.events, ev)
	if !x.infinite {
		k := c.Key()
		if e, ok := x.current[k]; ok {
			e.count++
		} else {
			x.current[k] = &entry{tuple: c, count: 1}
		}
	}
	if x.onEvent != nil {
		x.onEvent(ev)
	}
	return nil
}

// Delete removes one occurrence of the tuple at the given instant. Streams
// (infinite XD-Relations) are append-only and reject deletion; deleting a
// tuple that is not present errors.
func (x *XDRelation) Delete(at service.Instant, t value.Tuple) error {
	if x.infinite {
		return fmt.Errorf("stream: %s: streams are append-only", x.Name())
	}
	c, err := x.sch.RealRel().Conforms(t)
	if err != nil {
		return fmt.Errorf("stream: %s: %w", x.Name(), err)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if at < x.lastAt {
		return fmt.Errorf("stream: %s: event at instant %d before last instant %d", x.Name(), at, x.lastAt)
	}
	k := c.Key()
	e, ok := x.current[k]
	if !ok || e.count == 0 {
		return fmt.Errorf("stream: %s: deleting absent tuple %s", x.Name(), c)
	}
	x.lastAt = at
	ev := Event{At: at, Kind: Delete, Tuple: c}
	x.events = append(x.events, ev)
	e.count--
	if e.count == 0 {
		delete(x.current, k)
	}
	if x.onEvent != nil {
		x.onEvent(ev)
	}
	return nil
}

// Current returns the instantaneous multiset now (after all events),
// expanded to a tuple slice sorted by key. A stream keeps no multiset: for
// it Current is the multiset of its retained inserts, At(LastInstant()), so
// once a window or RETAIN trims the log it no longer holds the full
// history.
func (x *XDRelation) Current() []value.Tuple {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if x.infinite {
		return x.atLocked(x.lastAt)
	}
	return expand(x.current)
}

// At reconstructs the instantaneous multiset at instant τ (used for late
// observers and tests; live evaluation uses Current/InsertedIn). A finite
// relation starts from its current multiset and undoes the events after τ,
// so it is exact for any τ at or after its trim point; a stream replays its
// retained inserts up to τ.
func (x *XDRelation) At(at service.Instant) []value.Tuple {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.atLocked(at)
}

func (x *XDRelation) atLocked(at service.Instant) []value.Tuple {
	counts := map[string]*entry{}
	events, sign := x.events[:x.firstEventAfterLocked(at)], 1
	if !x.infinite {
		for k, e := range x.current {
			counts[k] = &entry{tuple: e.tuple, count: e.count}
		}
		events, sign = x.events[len(events):], -1
	}
	for _, ev := range events {
		k := ev.Tuple.Key()
		e, ok := counts[k]
		if !ok {
			e = &entry{tuple: ev.Tuple}
			counts[k] = e
		}
		if ev.Kind == Insert {
			e.count += sign
		} else {
			e.count -= sign
		}
	}
	return expand(counts)
}

// expand lists a multiset's tuples sorted by key, each repeated count times.
func expand(m map[string]*entry) []value.Tuple {
	keys := make([]string, 0, len(m))
	for k, e := range m {
		if e.count > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []value.Tuple
	for _, k := range keys {
		e := m[k]
		for i := 0; i < e.count; i++ {
			out = append(out, e.tuple)
		}
	}
	return out
}

// InsertedIn returns the multiset of tuples inserted in the half-open
// interval (from, to] — exactly the content the window operator W[period]
// needs at instant τ with from = τ−period, to = τ (Section 4.2).
func (x *XDRelation) InsertedIn(from, to service.Instant) []value.Tuple {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var out []value.Tuple
	for i := x.firstEventAfterLocked(from); i < len(x.events); i++ {
		ev := x.events[i]
		if ev.At > to {
			break
		}
		if ev.Kind == Insert {
			out = append(out, ev.Tuple)
		}
	}
	return out
}

// EventsIn returns the events (inserts AND deletes, in log order) recorded
// in (from, to]. This is the delta-emission primitive of the incremental
// evaluator: a consumer that saw the multiset as of `from` reconstructs the
// multiset as of `to` by replaying exactly these events.
func (x *XDRelation) EventsIn(from, to service.Instant) []Event {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var out []Event
	for i := x.firstEventAfterLocked(from); i < len(x.events); i++ {
		ev := x.events[i]
		if ev.At > to {
			break
		}
		out = append(out, ev)
	}
	return out
}

// firstEventAfterLocked binary-searches the first event with At > from.
func (x *XDRelation) firstEventAfterLocked(from service.Instant) int {
	return sort.Search(len(x.events), func(i int) bool { return x.events[i].At > from })
}

// TrimBefore drops events at instants < before, bounding the log. A finite
// relation's current multiset is unaffected; a stream's Current shrinks to
// the retained inserts. A finite relation's At() stays exact for instants
// >= before; a stream's At() holds only the inserts at or after before.
// Neither is reliable for instants before the trim point. A window only holds back trimming from the moment it is
// registered, so a window of p instants over an already trimmed relation
// sees less than p instants of history until p instants have passed.
func (x *XDRelation) TrimBefore(before service.Instant) {
	x.mu.Lock()
	defer x.mu.Unlock()
	i := sort.Search(len(x.events), func(i int) bool { return x.events[i].At >= before })
	if i == 0 {
		return
	}
	if 2*i >= len(x.events) {
		// Dropping at least half: compact into a fresh array so the dead
		// prefix is released to the collector.
		x.events = append([]Event(nil), x.events[i:]...)
		return
	}
	// Small trim (the steady per-tick case): advance the slice in O(1).
	// The dead prefix stays referenced until the next compaction or until
	// append outgrows the backing array, which copies only the live tail —
	// amortized O(1) per event instead of a full copy per tick.
	x.events = x.events[i:]
}

// EventCount returns the number of retained events.
func (x *XDRelation) EventCount() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.events)
}

// SetOnEvent installs (or, with nil, removes) the event observer. The
// callback runs with the relation lock held, in event-log order.
func (x *XDRelation) SetOnEvent(fn func(Event)) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.onEvent = fn
}

// Counted is one (tuple, multiplicity) pair of the current multiset, used
// by checkpoint snapshots.
type Counted struct {
	Tuple value.Tuple
	Count int
}

// StateSnapshot copies the relation's full durable state: the retained
// event log, the current multiset (empty for a stream), and the last event
// instant.
func (x *XDRelation) StateSnapshot() (events []Event, current []Counted, lastAt service.Instant) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	events = append([]Event(nil), x.events...)
	keys := make([]string, 0, len(x.current))
	for k := range x.current {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	current = make([]Counted, 0, len(keys))
	for _, k := range keys {
		e := x.current[k]
		current = append(current, Counted{Tuple: e.tuple, Count: e.count})
	}
	return events, current, x.lastAt
}

// RestoreState replaces the relation's state with a snapshot previously
// taken by StateSnapshot (checkpoint recovery). The snapshot is trusted:
// tuples were validated when first inserted. A stream ignores the
// multiset, which checkpoints of earlier versions still carry.
func (x *XDRelation) RestoreState(events []Event, current []Counted, lastAt service.Instant) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.events = append([]Event(nil), events...)
	x.lastAt = lastAt
	if x.infinite {
		return
	}
	x.current = make(map[string]*entry, len(current))
	for _, c := range current {
		x.current[c.Tuple.Key()] = &entry{tuple: c.Tuple, count: c.Count}
	}
}
