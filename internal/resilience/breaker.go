package resilience

import (
	"errors"
	"sync"
	"time"
)

// State is a circuit breaker state.
type State uint8

// Breaker states: Closed lets calls through; Open short-circuits them;
// HalfOpen lets a bounded number of probes through to test recovery.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// ErrOpen is returned (wrapped) when a breaker short-circuits a call.
var ErrOpen = errors.New("resilience: circuit open")

// BreakerPolicy configures circuit breakers.
type BreakerPolicy struct {
	// FailureThreshold is the number of CONSECUTIVE failures that trips
	// the breaker open. Values < 1 default to 5.
	FailureThreshold int
	// Cooldown is how long an open breaker waits before letting a
	// half-open probe through. Values <= 0 default to 5s.
	Cooldown time.Duration
	// HalfOpenProbes is how many concurrent probes a half-open breaker
	// admits. Values < 1 default to 1.
	HalfOpenProbes int
	// Now is the clock (injectable for deterministic tests); nil means
	// time.Now.
	Now func() time.Time
	// OnTransition, when non-nil, observes every state change. It is called
	// synchronously with the breaker's internal lock held, so it must be
	// fast and must not call back into the breaker. This keeps the
	// resilience package dependency-free: callers (e.g. the service layer)
	// attach their own metrics here.
	OnTransition func(from, to State)
}

func (p BreakerPolicy) normalized() BreakerPolicy {
	if p.FailureThreshold < 1 {
		p.FailureThreshold = 5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 5 * time.Second
	}
	if p.HalfOpenProbes < 1 {
		p.HalfOpenProbes = 1
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// Breaker is one circuit breaker: closed → open after FailureThreshold
// consecutive failures → half-open probe after Cooldown → closed again on
// probe success (or back to open on probe failure). It is safe for
// concurrent use.
type Breaker struct {
	policy BreakerPolicy

	mu        sync.Mutex
	state     State
	failures  int       // consecutive failures while closed
	openedAt  time.Time // when the breaker tripped
	inFlight  int       // admitted half-open probes not yet resolved
	probeFail bool      // a half-open probe failed; re-open on resolve
}

// NewBreaker builds a breaker under the given policy.
func NewBreaker(policy BreakerPolicy) *Breaker {
	return &Breaker{policy: policy.normalized()}
}

// State reports the current state (advancing open → half-open when the
// cooldown has elapsed).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	return b.state
}

// Allow reports whether a call may proceed now. A half-open breaker admits
// up to HalfOpenProbes concurrent probes; every admitted call MUST be
// resolved with Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		if b.inFlight < b.policy.HalfOpenProbes {
			b.inFlight++
			return true
		}
		return false
	}
	return false
}

// Success resolves an admitted call as succeeded.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures = 0
	case HalfOpen:
		if b.inFlight > 0 {
			b.inFlight--
		}
		if b.inFlight == 0 && !b.probeFail {
			// All probes succeeded: the service recovered.
			b.setStateLocked(Closed)
			b.failures = 0
		}
	}
}

// Failure resolves an admitted call as failed.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.policy.FailureThreshold {
			b.trip()
		}
	case HalfOpen:
		if b.inFlight > 0 {
			b.inFlight--
		}
		b.probeFail = true
		if b.inFlight == 0 {
			// The probe showed the service is still down: re-open.
			b.trip()
		}
	case Open:
		// A straggler from before the trip; the breaker is already open.
	}
}

// trip moves to Open and stamps the cooldown clock (lock held).
func (b *Breaker) trip() {
	b.setStateLocked(Open)
	b.openedAt = b.policy.Now()
	b.failures = 0
	b.inFlight = 0
	b.probeFail = false
}

// advanceLocked promotes Open → HalfOpen once the cooldown has elapsed.
func (b *Breaker) advanceLocked() {
	if b.state == Open && b.policy.Now().Sub(b.openedAt) >= b.policy.Cooldown {
		b.setStateLocked(HalfOpen)
		b.inFlight = 0
		b.probeFail = false
	}
}

// setStateLocked changes state and fires the transition hook (lock held).
func (b *Breaker) setStateLocked(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.policy.OnTransition != nil {
		b.policy.OnTransition(from, to)
	}
}

// BreakerSet keys breakers by service reference, creating them lazily
// under a shared policy. It is safe for concurrent use.
type BreakerSet struct {
	policy BreakerPolicy

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewBreakerSet builds an empty set under the given policy.
func NewBreakerSet(policy BreakerPolicy) *BreakerSet {
	return &BreakerSet{policy: policy.normalized(), m: make(map[string]*Breaker)}
}

// Allow reports whether a key's breaker admits a call. A key never seen
// failing has no breaker and is always allowed (and stays untracked).
func (s *BreakerSet) Allow(key string) bool {
	s.mu.Lock()
	b, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		return true
	}
	return b.Allow()
}

// OnResult resolves a call's outcome for a key. Failures create the
// breaker lazily; successes on untracked keys stay untracked (a healthy
// service never allocates a breaker).
func (s *BreakerSet) OnResult(key string, ok bool) {
	s.mu.Lock()
	b, tracked := s.m[key]
	if !tracked {
		if ok {
			s.mu.Unlock()
			return
		}
		b = NewBreaker(s.policy)
		s.m[key] = b
	}
	s.mu.Unlock()
	if ok {
		b.Success()
	} else {
		b.Failure()
	}
}

// State reports the state of a key's breaker (Closed for untracked keys).
func (s *BreakerSet) State(key string) State {
	s.mu.Lock()
	b, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		return Closed
	}
	return b.State()
}

// States snapshots all tracked breakers.
func (s *BreakerSet) States() map[string]State {
	s.mu.Lock()
	keys := make([]*Breaker, 0, len(s.m))
	names := make([]string, 0, len(s.m))
	for k, b := range s.m {
		names = append(names, k)
		keys = append(keys, b)
	}
	s.mu.Unlock()
	out := make(map[string]State, len(names))
	for i, k := range names {
		out[k] = keys[i].State()
	}
	return out
}

// Reset forgets a key's breaker (e.g. when its service is withdrawn for
// good — a re-registered service starts with a clean slate).
func (s *BreakerSet) Reset(key string) {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}
