package stream

import (
	"fmt"
	"sync"

	"serena/internal/resilience"
	"serena/internal/service"
	"serena/internal/value"
)

// ingestState is the bounded staging buffer between producers and the tick
// loop. Producers Offer tuples at any rate; the executor drains the buffer
// at the start of each tick and inserts the survivors at the tick instant.
// The buffer has its own lock — an Offer never contends with query
// evaluation reading the relation.
//
// Durability note: buffered tuples are NOT yet durable. A tuple becomes
// part of the XD-Relation (and hence of the write-ahead log) only when a
// tick drains it; tuples still in the buffer at a crash are lost, exactly
// as if the overload policy had shed them. Both subtract from the stream
// before Definition 9 evaluation ever sees them, so recovery replays a
// prefix-consistent history.
type ingestState struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	buf      []value.Tuple
	capacity int
	policy   resilience.OverloadPolicy
	shed     int64
	offered  int64
	closed   bool
}

// SetOverloadPolicy bounds the relation's ingest path: producers go through
// a buffer of at most capacity tuples drained once per tick, and policy
// decides what happens when the buffer is full (BLOCK backpressure,
// SHED_OLDEST, SHED_NEWEST). capacity < 1 defaults to 1024. Calling it
// again reconfigures the buffer in place (existing buffered tuples are
// kept, trimmed to the new capacity by shedding oldest).
func (x *XDRelation) SetOverloadPolicy(policy resilience.OverloadPolicy, capacity int) {
	if capacity < 1 {
		capacity = DefaultIngestCapacity
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.ingest == nil {
		st := &ingestState{}
		st.notFull = sync.NewCond(&st.mu)
		x.ingest = st
	}
	st := x.ingest
	st.mu.Lock()
	st.policy = policy
	st.capacity = capacity
	for len(st.buf) > capacity {
		st.buf = st.buf[1:]
		st.shed++
	}
	st.notFull.Broadcast()
	st.mu.Unlock()
}

// DefaultIngestCapacity is the buffer bound used when DDL or callers give
// no explicit CAPACITY.
const DefaultIngestCapacity = 1024

// OverloadPolicy returns the configured ingest policy, capacity, and
// whether ingest buffering is enabled at all.
func (x *XDRelation) OverloadPolicy() (policy resilience.OverloadPolicy, capacity int, enabled bool) {
	x.mu.RLock()
	st := x.ingest
	x.mu.RUnlock()
	if st == nil {
		return resilience.Block, 0, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.policy, st.capacity, true
}

// Offer stages a tuple for insertion at the next tick, subject to the
// relation's overload policy. The tuple is schema-conformed now, so a
// malformed tuple fails at the producer instead of poisoning the tick
// loop. Under BLOCK a full buffer makes Offer wait; under SHED_OLDEST /
// SHED_NEWEST a full buffer sheds (counted, not an error — shedding is the
// policy working as configured). Offer errors only for malformed tuples or
// when no overload policy is configured.
func (x *XDRelation) Offer(t value.Tuple) error {
	c, err := x.sch.RealRel().Conforms(t)
	if err != nil {
		return fmt.Errorf("stream: %s: offer: %w", x.Name(), err)
	}
	x.mu.RLock()
	st := x.ingest
	x.mu.RUnlock()
	if st == nil {
		return fmt.Errorf("stream: %s: offer without overload policy (use SetOverloadPolicy or ON OVERLOAD)", x.Name())
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.offered++
	for len(st.buf) >= st.capacity {
		if st.closed {
			return fmt.Errorf("stream: %s: offer after close", x.Name())
		}
		switch st.policy {
		case resilience.Block:
			st.notFull.Wait()
			continue
		case resilience.ShedOldest:
			st.buf = st.buf[1:]
		case resilience.ShedNewest:
			// The offered tuple itself is the victim.
		}
		st.shed++
		if st.policy == resilience.ShedNewest {
			return nil
		}
		break
	}
	if st.closed {
		return fmt.Errorf("stream: %s: offer after close", x.Name())
	}
	st.buf = append(st.buf, c)
	return nil
}

// DrainIngest moves every buffered tuple into the relation at instant at
// (the tick instant), unblocking any producers waiting on backpressure. It
// returns how many tuples were inserted. Insertion goes through the normal
// Insert path, so drained tuples hit the write-ahead log and the event
// log exactly like direct inserts.
func (x *XDRelation) DrainIngest(at service.Instant) (int, error) {
	x.mu.RLock()
	st := x.ingest
	x.mu.RUnlock()
	if st == nil {
		return 0, nil
	}
	st.mu.Lock()
	batch := st.buf
	st.buf = nil
	st.notFull.Broadcast()
	st.mu.Unlock()
	for i, t := range batch {
		if err := x.Insert(at, t); err != nil {
			return i, fmt.Errorf("stream: %s: drain: %w", x.Name(), err)
		}
	}
	return len(batch), nil
}

// IngestDepth returns the number of tuples currently buffered.
func (x *XDRelation) IngestDepth() int {
	x.mu.RLock()
	st := x.ingest
	x.mu.RUnlock()
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.buf)
}

// IngestStats returns how many tuples were offered and how many were shed
// since the overload policy was configured.
func (x *XDRelation) IngestStats() (offered, shed int64) {
	x.mu.RLock()
	st := x.ingest
	x.mu.RUnlock()
	if st == nil {
		return 0, 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.offered, st.shed
}

// CloseIngest permanently unblocks producers waiting on backpressure;
// subsequent Offers fail. Buffered tuples remain drainable.
func (x *XDRelation) CloseIngest() {
	x.mu.RLock()
	st := x.ingest
	x.mu.RUnlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	st.closed = true
	st.notFull.Broadcast()
	st.mu.Unlock()
}
