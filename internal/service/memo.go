package service

import (
	"sync"

	"serena/internal/value"
)

// Memo caches passive invocation results within a single time instant. The
// paper assumes services are deterministic at a given instant (Section 3.2),
// which makes invoke_ψ(s, t) a pure function of (ψ, s, t, τ); the memo
// exploits that to avoid re-invoking a passive prototype with identical
// arguments during one query evaluation or one continuous-query tick.
//
// Concurrent lookups of the same key are coalesced: the first caller owns
// an in-flight entry and performs the physical call, later callers wait for
// its result instead of invoking again. Without coalescing a check-then-
// invoke-then-put memo lets two parallel workers both miss and both invoke
// — a duplicate passive call within one instant, which Section 3.2's
// determinism says is pure waste (and, for metered services, a real cost).
//
// Active prototypes must NEVER be memoized: each occurrence in a query is a
// distinct action with a physical side effect.
type Memo struct {
	mu sync.Mutex
	// m holds one entry per key, in-flight or completed: a completed entry
	// IS the cached result. One map keeps the hot miss path at a single
	// lookup plus a single insert (Complete publishes in place, touching no
	// map), which matters because β fan-out pays this cost per tuple.
	m map[memoKey]*Flight
}

type memoKey struct {
	proto string
	ref   string
	input string // tuple identity key
}

// NewMemo returns an empty memo. Its entries are valid at one instant only,
// so callers make one memo per instant.
func NewMemo() *Memo {
	return &Memo{m: make(map[memoKey]*Flight)}
}

// Flight is one memo entry for a (proto, ref, input) key, in-flight until
// its owner (the caller Begin told to invoke) Completes it — exactly once;
// everyone else Waits. Flight state is guarded by the memo's mutex; the
// wake-up channel is only allocated when a waiter actually parks, so the
// common uncontended miss pays no channel.
type Flight struct {
	done      chan struct{} // created lazily by the first Wait
	completed bool
	memo      *Memo
	key       memoKey
	rows      []value.Tuple
	err       error
}

// BeginStatus reports a Begin caller's role.
type BeginStatus uint8

// Begin outcomes.
const (
	// BeginHit: the key was already memoized; rows are valid.
	BeginHit BeginStatus = iota
	// BeginOwner: the caller must perform the invocation and Complete the
	// returned flight.
	BeginOwner
	// BeginShared: another caller is invoking; Wait on the returned flight.
	BeginShared
)

// Begin is the coalescing entry point: it returns the cached rows
// (BeginHit), registers the caller as the single invoker of a new in-flight
// entry (BeginOwner), or hands back another caller's in-flight entry to
// wait on (BeginShared). Owners MUST call Flight.Complete — even on error —
// or waiters block forever.
func (m *Memo) Begin(proto, ref string, input value.Tuple) ([]value.Tuple, *Flight, BeginStatus) {
	key := memoKey{proto, ref, input.Key()}
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.m[key]; ok {
		if f.completed {
			return f.rows, nil, BeginHit
		}
		return nil, f, BeginShared
	}
	f := &Flight{memo: m, key: key}
	m.m[key] = f
	return nil, f, BeginOwner
}

// Complete publishes the owner's result: a successful invocation is
// memoized, a failed one only wakes the waiters (errors are never cached —
// the key is invokable again, e.g. by the next instant's retry).
func (f *Flight) Complete(rows []value.Tuple, err error) {
	m := f.memo
	m.mu.Lock()
	f.rows, f.err = rows, err
	f.completed = true
	if err != nil {
		delete(m.m, f.key)
	}
	done := f.done
	m.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// Wait blocks until the flight's owner Completes and returns its result.
func (f *Flight) Wait() ([]value.Tuple, error) {
	m := f.memo
	m.mu.Lock()
	if f.completed {
		defer m.mu.Unlock()
		return f.rows, f.err
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	done := f.done
	m.mu.Unlock()
	<-done
	return f.rows, f.err
}
