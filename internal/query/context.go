package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"serena/internal/algebra"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/trace"
	"serena/internal/value"
)

// Action is one element of a query's action set (Definition 8): the
// invocation of an active binding pattern on a service with an input tuple.
type Action struct {
	BP    string // binding pattern identity "proto[serviceAttr]"
	Ref   string // service reference
	Input value.Tuple
}

// Key is the set identity of the action.
func (a Action) Key() string { return a.BP + "|" + a.Ref + "|" + a.Input.Key() }

// String renders "(bp, ref, input)" like Example 6.
func (a Action) String() string {
	return fmt.Sprintf("(%s, %s, %s)", a.BP, a.Ref, a.Input)
}

// ActionSet is the set of actions triggered by a query against an
// environment: Actions_p(q) of Definition 8. It is safe for concurrent use
// (the invocation operator may fire asynchronously, Section 5.1).
type ActionSet struct {
	mu    sync.Mutex
	byKey map[string]Action
}

// NewActionSet returns an empty action set.
func NewActionSet() *ActionSet { return &ActionSet{byKey: make(map[string]Action)} }

// Add records an action (idempotent — it is a set).
func (s *ActionSet) Add(a Action) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byKey[a.Key()] = a
}

// Len returns the cardinality.
func (s *ActionSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byKey)
}

// Equal reports set equality — the action-set half of query equivalence
// (Definition 9).
func (s *ActionSet) Equal(o *ActionSet) bool {
	sk := s.keySet()
	ok := o.keySet()
	if len(sk) != len(ok) {
		return false
	}
	for k := range sk {
		if !ok[k] {
			return false
		}
	}
	return true
}

func (s *ActionSet) keySet() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]bool, len(s.byKey))
	for k := range s.byKey {
		out[k] = true
	}
	return out
}

// Sorted returns the actions in deterministic order.
func (s *ActionSet) Sorted() []Action {
	s.mu.Lock()
	keys := make([]string, 0, len(s.byKey))
	for k := range s.byKey {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	out := make([]Action, len(keys))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, k := range keys {
		out[i] = s.byKey[k]
	}
	return out
}

// String renders "{(bp, ref, input), …}".
func (s *ActionSet) String() string {
	parts := make([]string, 0, s.Len())
	for _, a := range s.Sorted() {
		parts = append(parts, a.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ContinuousHooks is implemented by the continuous executor (internal/cq)
// to give the three time-aware operators of Section 4.2 their semantics:
// W[period] over a stream's event log, S[kind] over its child's
// instantaneous relation compared with the previous instant's, and β firing
// only for tuples new to its operand. Every other operator is the one-shot
// operator applied to instantaneous relations. One-shot evaluation leaves
// it nil.
type ContinuousHooks interface {
	EvalWindow(w *Window) (*algebra.XRelation, error)
	EvalStream(s *Stream, child *algebra.XRelation) (*algebra.XRelation, error)
	EvalInvoke(i *Invoke, child *algebra.XRelation) (*algebra.XRelation, error)
}

// Context carries everything one evaluation needs: the environment, the
// service registry, the evaluation instant τ, the recorded action set, the
// per-instant memo for passive invocations, and optional continuous hooks.
type Context struct {
	Env      Environment
	Registry *service.Registry
	At       service.Instant
	Actions  *ActionSet

	// Memo caches passive invocation results within this instant. Nil
	// disables memoization (ablation: every tuple re-invokes).
	Memo *service.Memo

	// Continuous is set by the continuous executor; nil for one-shot
	// queries.
	Continuous ContinuousHooks

	// OnInvokeError, when non-nil, observes every physical invocation
	// failure (unreachable device, remote error, open breaker). With
	// Degradation left at resilience.Default it also DECIDES: returning
	// nil skips the failing tuple (it contributes no output, like an
	// empty invocation result); returning an error aborts the query; and
	// a nil OnInvokeError fails fast — the right default for one-shot
	// queries, while the continuous executor installs a collector so one
	// flaky device cannot kill a standing query. With an explicit
	// Degradation policy the callback is a pure observer (its non-nil
	// return still vetoes/aborts) and the policy decides.
	//
	// For ACTIVE binding patterns the action is recorded before the
	// physical call, so a failed active invocation still appears in the
	// action set: it was attempted, and its physical effect is unknown.
	OnInvokeError func(bp schema.BindingPattern, ref string, input value.Tuple, err error) error

	// Degradation selects what the invocation operator β does with a
	// tuple whose physical invocation failed: resilience.FailFast aborts
	// the query, resilience.SkipTuple drops the tuple (the paper's
	// no-service case), resilience.NullFill keeps it with its virtual
	// attributes realized as NULL. resilience.Default preserves the
	// legacy OnInvokeError contract above.
	Degradation resilience.DegradationPolicy

	// Ctx carries cancellation and deadlines down through
	// the Registry into the physical invocation (remote round trips
	// included). Nil means context.Background().
	Ctx context.Context

	// Parallelism is the size of the worker pool InvokeAll runs one
	// operator's dispatches on (Section 5.1: invocations are handled
	// asynchronously; Section 3.2 makes order irrelevant at an instant).
	// Values < 2 mean sequential, in input order.
	Parallelism int

	// Span is the enclosing trace span for this evaluation (nil when the
	// evaluation is unsampled — the common case). When set, every β
	// invocation records a per-tuple child span carrying the binding
	// pattern, service reference, input tuple and realized outcome, and
	// the span rides the context.Context down to the registry and across
	// the wire. All span operations are nil-safe, so the unsampled hot
	// path pays one pointer check per tuple.
	Span *trace.Span

	// Profile, when non-nil, collects per-operator calls, output rows and
	// wall time as Eval walks the plan (EXPLAIN ANALYZE). Nil — the common
	// case — costs one pointer check per operator.
	Profile *Profile

	// Stats counts invocations actually reaching services.
	Stats InvokeStats

	// statsMu guards Stats and OnInvokeError calls under parallel
	// invocation.
	statsMu sync.Mutex

	// published remembers how much of Stats has already been flushed to
	// the registry's metrics (see PublishObsStats).
	published InvokeStats
}

// InvokeError records one skipped invocation failure.
type InvokeError struct {
	BP    string
	Ref   string
	Input value.Tuple
	Err   error
}

// Error implements error.
func (e InvokeError) Error() string {
	return fmt.Sprintf("invoke %s on %s%s: %v", e.BP, e.Ref, e.Input, e.Err)
}

// InvokeStats counts the physical invocations performed through a context.
// Coalesced counts lookups that joined another worker's in-flight call
// instead of invoking — like Memoized, no physical call happened.
type InvokeStats struct {
	Passive   int64
	Active    int64
	Memoized  int64
	Coalesced int64
}

// NewContext builds a one-shot evaluation context at the given instant.
func NewContext(env Environment, reg *service.Registry, at service.Instant) *Context {
	return &Context{
		Env:      env,
		Registry: reg,
		At:       at,
		Actions:  NewActionSet(),
		Memo:     service.NewMemo(),
	}
}

// Eval evaluates one operator of the plan. It is the only way a subtree is
// evaluated — the root by EvaluateCtx or the continuous executor, operands by
// their parent's Node.Eval — so profiling needs no second tree.
func (c *Context) Eval(n Node) (*algebra.XRelation, error) {
	if c.Profile == nil {
		return n.Eval(c)
	}
	start := time.Now()
	r, err := n.Eval(c)
	c.Profile.record(n, r, err, time.Since(start))
	return r, err
}

// PublishObsStats flushes this context's invocation statistics into the
// registry's metrics — β invocations as seen from the algebra, split by
// binding-pattern mode plus memo outcomes ("query.invoke.passive" and
// friends; the service layer counts physical calls) — as deltas since the
// previous flush, so repeated calls never double-count. EvaluateCtx and
// the continuous executor call it once per evaluation: batching at
// evaluation granularity keeps the per-invocation hot path free of shared
// atomics while the registry stays exact.
func (c *Context) PublishObsStats() {
	c.statsMu.Lock()
	d := InvokeStats{
		Passive:   c.Stats.Passive - c.published.Passive,
		Active:    c.Stats.Active - c.published.Active,
		Memoized:  c.Stats.Memoized - c.published.Memoized,
		Coalesced: c.Stats.Coalesced - c.published.Coalesced,
	}
	c.published = c.Stats
	c.statsMu.Unlock()
	c.count("query.invoke.passive", d.Passive)
	c.count("query.invoke.active", d.Active)
	c.count("query.invoke.memoized", d.Memoized)
	c.count("query.invoke.coalesced", d.Coalesced)
}

// count adds n to the named counter of the registry's metrics.
func (c *Context) count(name string, n int64) {
	c.Registry.Metrics().Counter(name).Add(n)
}

// ctx returns the evaluation context's context.Context (never nil).
func (c *Context) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// CountActive counts one active invocation without performing it — the
// continuous executor uses it when recovery replays a logged active β from
// its recorded outcome instead of re-firing it (the physical call DID
// happen, before the crash).
func (c *Context) CountActive() { c.bump(&c.Stats.Active) }

func (c *Context) bump(counter *int64) {
	c.statsMu.Lock()
	*counter++
	c.statsMu.Unlock()
}
