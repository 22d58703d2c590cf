package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"serena/internal/obs"
	"serena/internal/resilience"
	"serena/internal/trace"
	"serena/internal/value"
)

// invokeObs is a registry's aggregate invocation metrics, always on:
// calls, sampled latency, passive retries, failures, breaker short
// circuits, calls rerouted to a surviving replica and calls that ran out of
// replicas. Per-(prototype, service) bundles hang off the services-map
// entry so the β hot path costs no extra lookup — just a few atomic ops,
// no allocation.
type invokeObs struct {
	latency                                                       *obs.Histogram
	calls, retries, failures, shortCircuits, failovers, exhausted *obs.Counter
}

func newInvokeObs(m *obs.Metrics) invokeObs {
	return invokeObs{
		latency:       m.Histogram("service.invoke.latency"),
		calls:         m.Counter("service.invoke.calls"),
		retries:       m.Counter("service.invoke.retries"),
		failures:      m.Counter("service.invoke.failures"),
		shortCircuits: m.Counter("service.invoke.short_circuits"),
		failovers:     m.Counter("service.invoke.failovers"),
		exhausted:     m.Counter("service.invoke.failover_exhausted"),
	}
}

// invokeMetrics is the cached per-(prototype, service) metric bundle,
// registered under keys like "service.invoke.calls{getTemperature|sensor1}".
type invokeMetrics struct {
	calls    *obs.Counter
	latency  *obs.Histogram
	retries  *obs.Counter
	failures *obs.Counter
}

// svcEntry is what the registry's services map actually holds: the service
// plus its per-prototype metric bundles. Hanging the bundles off the entry
// lets the β hot path reuse the services-map lookup it already pays for —
// no second hash, no extra lock. A service implements very few prototypes,
// so resolution is a short slice scan over an immutable snapshot.
type svcEntry struct {
	// providers lists the nodes replicating this reference, sorted by
	// descending rendezvous score (see provider.go), so providers[0] is the
	// routing owner; a plain Register entry holds one provider with no
	// node. batchCounted tracks whether this entry is counted in
	// Registry.batchable.
	providers    []provider
	batchCounted bool

	im   atomic.Pointer[[]protoMetrics]
	imMu sync.Mutex // serializes bundle creation; readers go through im
}

type protoMetrics struct {
	proto string
	im    *invokeMetrics
}

func (e *svcEntry) metricsFor(m *obs.Metrics, proto, ref string) *invokeMetrics {
	if list := e.im.Load(); list != nil {
		for i := range *list {
			if (*list)[i].proto == proto {
				return (*list)[i].im
			}
		}
	}
	e.imMu.Lock()
	defer e.imMu.Unlock()
	var list []protoMetrics
	if p := e.im.Load(); p != nil {
		list = *p
		for i := range list {
			if list[i].proto == proto {
				return list[i].im
			}
		}
	}
	key := proto + "|" + ref
	im := &invokeMetrics{
		calls:    m.Counter(obs.Key("service.invoke.calls", key)),
		latency:  m.Histogram(obs.Key("service.invoke.latency", key)),
		retries:  m.Counter(obs.Key("service.invoke.retries", key)),
		failures: m.Counter(obs.Key("service.invoke.failures", key)),
	}
	next := append(append(make([]protoMetrics, 0, len(list)+1), list...), protoMetrics{proto, im})
	e.im.Store(&next)
	return im
}

// Options is a registry's fault-tolerance policy, fixed at construction.
type Options struct {
	// InvokeTimeout bounds every physical invocation through the registry:
	// a service (local or remote) that does not answer within it fails
	// with context.DeadlineExceeded instead of stalling the operator. 0
	// means no bound.
	InvokeTimeout time.Duration
	// Retry re-attempts failed invocations of passive prototypes ONLY:
	// re-invoking an active prototype would duplicate the query's action
	// set (Definition 8) — the same soundness rule that restricts the
	// paper's Table 5 rewritings to passive invocations. The zero policy
	// never retries.
	Retry resilience.RetryPolicy
	// Breakers, when non-nil, attaches per-service circuit breakers: after
	// FailureThreshold consecutive failures a service's breaker opens,
	// calls to it short-circuit with resilience.ErrOpen (no physical
	// attempt), and the service is masked out of Implementing — an open
	// breaker looks like temporary service withdrawal to the discovery
	// X-Relations. After the cooldown a half-open probe tests recovery.
	Breakers *resilience.BreakerPolicy
}

// newBreakerSet builds a breaker set whose transitions count in the
// registry's metrics under the metric base name unless the policy observes
// them itself.
func (r *Registry) newBreakerSet(policy resilience.BreakerPolicy, metric string) *resilience.BreakerSet {
	if policy.OnTransition == nil {
		policy.OnTransition = func(from, to resilience.State) {
			r.metrics.Counter(obs.Key(metric, from.String()+"->"+to.String())).Inc()
		}
	}
	return resilience.NewBreakerSet(policy)
}

// Breakers returns the per-service breaker set, or nil when
// Options.Breakers was not set.
func (r *Registry) Breakers() *resilience.BreakerSet { return r.breakers }

// Invoke implements invoke_ψ (Definition 1) for one input tuple: InvokeCtx
// with no caller deadline.
func (r *Registry) Invoke(proto, ref string, input value.Tuple, at Instant) ([]value.Tuple, error) {
	return r.InvokeCtx(context.Background(), proto, ref, input, at)
}

// InvokeCtx is InvokeAll for one input tuple.
func (r *Registry) InvokeCtx(ctx context.Context, proto, ref string, input value.Tuple, at Instant) ([]value.Tuple, error) {
	var res [1]InvokeResult
	r.invokeAll(ctx, proto, ref, []value.Tuple{input}, at, res[:])
	return res[0].Rows, res[0].Err
}

// InvokeAll implements invoke_ψ (Definition 1) for many input tuples of one
// (prototype, reference) pair: it resolves the reference, checks the
// prototype declaration, conforms each input to Input_ψ, runs the service
// and conforms every output tuple to Output_ψ. It applies the registry's
// fault-tolerance settings — the invoke timeout as each physical call's
// deadline under ctx, passive-only retry of the items still failing, and
// breakers — and fails over across the reference's providers (see
// attempt). A provider that is a Batcher receives its pending items as one
// frame. Results are positional and per item; a resolution failure
// (unknown prototype or service) fails every item.
func (r *Registry) InvokeAll(ctx context.Context, proto, ref string, inputs []value.Tuple, at Instant) []InvokeResult {
	out := make([]InvokeResult, len(inputs))
	r.invokeAll(ctx, proto, ref, inputs, at, out)
	return out
}

// invocation is one InvokeAll call's resolved state, shared by its
// attempts. The conformed inputs and the results travel as separate
// arguments: kept out of this struct, the one-item buffers stay on the
// stack.
type invocation struct {
	proto   string
	active  bool
	at      Instant
	timeout time.Duration
	// provs are the entry's providers in rendezvous order; impl counts those
	// implementing proto, and bit i of demoted marks provs[i] as sitting on
	// an Open-breaker node.
	provs   []provider
	impl    int
	demoted uint64
	nb      *resilience.BreakerSet
	m       *invokeObs
	span    *trace.Span
}

func (r *Registry) invokeAll(ctx context.Context, proto, ref string, inputs []value.Tuple, at Instant, out []InvokeResult) {
	if len(inputs) == 0 {
		return
	}
	retry, breakers := r.retry, r.breakers
	v := invocation{proto: proto, at: at, timeout: r.invokeTimeout, nb: r.nodeBreakers, m: &r.invoke}
	r.mu.RLock()
	p, okP := r.protos[proto]
	e, okS := r.services[ref]
	if okS {
		v.provs = e.providers
	}
	r.mu.RUnlock()
	for i, pv := range v.provs {
		if !pv.svc.Implements(proto) {
			continue
		}
		v.impl++
		if pv.node != "" && i < 64 && v.nb.State(pv.node) == resilience.Open {
			v.demoted |= 1 << i
		}
	}
	var err error
	switch {
	case !okP:
		err = fmt.Errorf("%w: %s", ErrUnknownPrototype, proto)
	case !okS:
		err = fmt.Errorf("%w: %s", ErrUnknownService, ref)
	case v.impl == 0:
		err = fmt.Errorf("%w: %s on %s", ErrNotImplemented, proto, ref)
	}
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return
	}

	// One item (the per-tuple path) keeps its buffers on the stack.
	var inBuf [1]value.Tuple
	var pendBuf, todoBuf [1]int
	in, pending, todo := inBuf[:], pendBuf[:0], todoBuf[:0]
	if len(inputs) > 1 {
		in = make([]value.Tuple, len(inputs))
		pending, todo = make([]int, 0, len(inputs)), make([]int, 0, len(inputs))
	}
	for i, t := range inputs {
		c, err := p.Input.Conforms(t)
		if err != nil {
			out[i].Err = fmt.Errorf("service: invoke %s on %s: input: %w", proto, ref, err)
			continue
		}
		in[i] = c
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return
	}
	v.active = p.Active
	if p.Active {
		// An active request that reaches a peer must never be transparently
		// re-sent by the transport: a lost answer surfaces as
		// ErrOutcomeUnknown instead, and the layers above pin the action.
		ctx = resilience.WithNoResend(ctx)
	}

	// Retries are sound only for passive prototypes: an active invocation
	// is an action, and at-most-once delivery of actions is part of the
	// algebra's semantics.
	attempts := 1
	if !p.Active && retry.MaxAttempts > 1 {
		attempts = retry.MaxAttempts
	}
	im := e.metricsFor(r.metrics, proto, ref)
	v.m.calls.Add(int64(len(pending)))
	// Counters are exact; latency is sampled — the first call per
	// (prototype, service) and every 8th after that. The two clock reads
	// and two histogram updates are the costliest part of always-on
	// instrumentation, and an in-process invocation is only ~1µs, so
	// sampling is what keeps the β hot path inside the ≤5% overhead
	// budget. The sampled distribution remains representative —
	// invocation latency does not correlate with the call index — and
	// sampling call 1 means even a single invocation shows up in
	// .metrics.
	nCall := im.calls.Next()
	im.calls.Add(int64(len(pending) - 1))
	sampleLatency := nCall == 1 || nCall&7 == 0
	// The enclosing β span, when this evaluation is sampled. The Active()
	// gate keeps the untraced hot path to one atomic load — no ctx.Value
	// walk, no interface assertion.
	if r.tracer.Active() {
		v.span = trace.FromContext(ctx)
	}
	tried := 0
	for attempt := 0; attempt < attempts && len(pending) > 0; attempt++ {
		if attempt > 0 {
			if err := resilience.SleepCtx(ctx, retry.Backoff(attempt-1, proto+"|"+ref)); err != nil {
				break // the deadline expired during backoff; report the last failure
			}
			v.m.retries.Add(int64(len(pending)))
			im.retries.Add(int64(len(pending)))
		}
		if breakers != nil && !breakers.Allow(ref) {
			v.m.shortCircuits.Inc()
			v.span.SetAttr("breaker", "open")
			err := fmt.Errorf("service: invoke %s on %s: %w", proto, ref, resilience.ErrOpen)
			for _, i := range pending {
				out[i] = InvokeResult{Err: err}
			}
			pending = pending[:0]
			break
		}
		tried++
		var start time.Time
		if sampleLatency {
			start = time.Now()
		}
		v.attempt(ctx, in, out, append(todo[:0], pending...))
		if sampleLatency {
			elapsed := time.Since(start)
			v.m.latency.Observe(elapsed)
			im.latency.Observe(elapsed)
		}
		failing := pending[:0]
		for _, i := range pending {
			if breakers != nil {
				breakers.OnResult(ref, out[i].Err == nil)
			}
			if out[i].Err != nil {
				failing = append(failing, i)
			}
		}
		pending = failing
		if ctx.Err() != nil {
			break
		}
	}
	if tried > 1 {
		v.span.SetAttrInt("attempts", int64(tried))
	}
	v.m.failures.Add(int64(len(pending)))
	im.failures.Add(int64(len(pending)))
	for _, i := range pending {
		out[i] = InvokeResult{Err: fmt.Errorf("service: invoke %s on %s: %w", proto, ref, out[i].Err)}
	}

	// Conform into a fresh slice: a service may share the one it returns
	// between calls.
	for i := range out {
		if out[i].Err != nil {
			continue
		}
		rows := make([]value.Tuple, len(out[i].Rows))
		for j, row := range out[i].Rows {
			c, err := p.Output.Conforms(row)
			if err != nil {
				rows, out[i].Err = nil, fmt.Errorf("service: invoke %s on %s: output tuple %d: %w", proto, ref, j, err)
				break
			}
			rows[j] = c
		}
		out[i].Rows = rows
	}
}

// attempt runs one physical attempt of the items todo across the
// providers in routing order: the rendezvous owner first, providers on
// Open-breaker nodes last (still reachable — if every node looks down,
// trying one beats failing without a call). Only items that failed at the
// transport layer move on to the next provider, within the same call (so
// a tick evaluated during a node loss still sees the rows the
// never-crashed control would). Application errors never fail over: the
// owner answered, and Section 3.2 determinism means a replica would answer
// the same. Active items fail over only on ErrUnreachable (the request
// never left this node); once an active request MAY have reached a peer
// (ErrOutcomeUnknown) it is never re-fired — the error propagates for the
// query layer to pin (Definition 8). Raw outcomes land in out.
func (v *invocation) attempt(ctx context.Context, in []value.Tuple, out []InvokeResult, todo []int) {
	tried := 0
	for pass := 0; pass < 2; pass++ {
		for i, pv := range v.provs {
			if len(todo) == 0 {
				return
			}
			if !pv.svc.Implements(v.proto) || (v.demoted>>i&1 == 1) != (pass == 1) {
				continue
			}
			if tried > 0 {
				v.m.failovers.Add(int64(len(todo)))
			}
			tried++
			v.call(ctx, pv, in, out, todo)
			// The node is down only if EVERY item failed at the transport
			// layer; any other answer proves it alive.
			var down error
			alive, answered := false, false
			moved := todo[:0]
			for _, k := range todo {
				err := out[k].Err
				if err == nil || !resilience.IsTransport(err) {
					alive = true
				} else {
					down = err
				}
				switch {
				case err == nil:
					answered = true
				case ctx.Err() != nil || !resilience.IsTransport(err),
					v.active && !errors.Is(err, resilience.ErrUnreachable):
					// Final: the provider answered, the caller gave up, or
					// an active request may have fired.
				case tried == v.impl:
					if v.impl > 1 {
						v.m.exhausted.Inc()
					}
				default:
					moved = append(moved, k)
				}
			}
			if alive {
				down = nil
			}
			onProviderResult(v.nb, pv, down)
			if answered && tried > 1 {
				v.span.SetAttr("failover_node", pv.node)
			}
			todo = moved
		}
	}
}

// call sends the items todo to one provider under the invoke timeout: one
// frame to a Batcher when more than one item is pending, one Invoke per
// item otherwise.
func (v *invocation) call(ctx context.Context, pv provider, in []value.Tuple, out []InvokeResult, todo []int) {
	if v.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, v.timeout)
		defer cancel()
	}
	if b, ok := pv.svc.(Batcher); ok && len(todo) > 1 {
		inputs := make([]value.Tuple, len(todo))
		for j, k := range todo {
			inputs[j] = in[k]
		}
		res := b.InvokeBatch(ctx, v.proto, inputs, v.at)
		for j, k := range todo {
			if j < len(res) {
				out[k] = res[j]
			} else {
				// A short frame (buggy transport) fails the unanswered tail
				// explicitly rather than returning silent empty results.
				out[k] = InvokeResult{Err: fmt.Errorf("batch transport returned %d of %d results", len(res), len(todo))}
			}
		}
		return
	}
	for _, k := range todo {
		rows, err := pv.svc.Invoke(ctx, v.proto, in[k], v.at)
		out[k] = InvokeResult{Rows: rows, Err: err}
	}
}
