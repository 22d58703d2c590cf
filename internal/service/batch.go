package service

import (
	"context"
	"errors"
	"fmt"

	"serena/internal/obs"
	"serena/internal/resilience"
	"serena/internal/value"
)

// Batch-dispatch metrics: how many batch calls the registry handled, how
// many invocations they carried, and how many had to fall back to per-item
// dispatch because the service has no batch transport.
var (
	obsBatchCalls     = obs.Default.Counter("service.invoke.batch.calls")
	obsBatchItems     = obs.Default.Counter("service.invoke.batch.items")
	obsBatchFallbacks = obs.Default.Counter("service.invoke.batch.fallbacks")
)

// InvokeResult is one item's outcome within a batched invocation.
type InvokeResult struct {
	Rows []value.Tuple
	Err  error
}

// BatchCtxService is an optional Service extension for implementations
// whose transport can carry many invocations of one prototype in a single
// round trip (the wire v3 batch frame). Results must be positional: out[i]
// is input[i]'s outcome, and one item's failure must not fail its
// neighbours.
type BatchCtxService interface {
	Service
	InvokeBatchCtx(ctx context.Context, proto string, inputs []value.Tuple, at Instant) []InvokeResult
}

// InvokeBatchCtx performs invoke_ψ for many input tuples of one
// (prototype, service) pair in a single registry call. Services exposing a
// batch transport (remote proxies) get one round trip for the whole group;
// any other service is invoked item by item through the exact per-item
// InvokeCtx path, so retries, breakers and metrics behave as if the caller
// had looped. Errors are per item — callers apply their own
// degradation policy to each — except for resolution failures (unknown
// prototype/service), which uniformly fail every item.
func (r *Registry) InvokeBatchCtx(ctx context.Context, proto, ref string, inputs []value.Tuple, at Instant) []InvokeResult {
	out := make([]InvokeResult, len(inputs))
	if len(inputs) == 0 {
		return out
	}
	obsBatchCalls.Inc()
	obsBatchItems.Add(int64(len(inputs)))

	r.mu.RLock()
	p, okP := r.protos[proto]
	e, okS := r.services[ref]
	breakers := r.breakers
	nodeBreakers := r.nodeBreakers
	timeout := r.invokeTimeout
	admission := r.admission
	var cands []provider
	if okS {
		cands = e.candidates(nodeBreakers)
	}
	r.mu.RUnlock()
	failAll := func(err error) []InvokeResult {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	if !okP {
		return failAll(fmt.Errorf("%w: %s", ErrUnknownPrototype, proto))
	}
	if !okS {
		return failAll(fmt.Errorf("%w: %s", ErrUnknownService, ref))
	}
	impl := cands[:0:0]
	for _, c := range cands {
		if c.svc.Implements(proto) {
			impl = append(impl, c)
		}
	}
	if len(impl) == 0 {
		return failAll(fmt.Errorf("%w: %s on %s", ErrNotImplemented, proto, ref))
	}
	cands = impl
	_, hasBatch := cands[0].svc.(BatchCtxService)
	if !hasBatch {
		// No batch transport: item by item through InvokeCtx, so every item
		// keeps the full retry/breaker/metric treatment.
		obsBatchFallbacks.Inc()
		for i, in := range inputs {
			out[i].Rows, out[i].Err = r.InvokeCtx(ctx, proto, ref, in, at)
		}
		return out
	}

	if breakers != nil && !breakers.Allow(ref) {
		obsInvokeShortCirc.Inc()
		return failAll(fmt.Errorf("service: invoke %s on %s: %w", proto, ref, resilience.ErrOpen))
	}
	// Conform every input before dispatch; malformed items fail locally and
	// are excluded from the frame.
	conf := make([]value.Tuple, 0, len(inputs))
	pos := make([]int, 0, len(inputs))
	for i, in := range inputs {
		c, err := p.Input.Conforms(in)
		if err != nil {
			out[i].Err = fmt.Errorf("service: invoke %s on %s: input: %w", proto, ref, err)
			continue
		}
		conf = append(conf, c)
		pos = append(pos, i)
	}
	if len(conf) == 0 {
		return out
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// One admission slot covers the whole frame — a batch is one physical
	// dispatch — and a rejection fails the frame fast without touching the
	// breaker.
	if admission != nil {
		if err := admission.Acquire(ctx); err != nil {
			if errors.Is(err, resilience.ErrOverloaded) {
				obsInvokeOverload.Inc()
			}
			return failAll(fmt.Errorf("service: invoke %s on %s: %w", proto, ref, err))
		}
		defer admission.Release()
	}
	im := e.metricsFor(proto, ref)
	if p.Active {
		// Defensive: the dispatcher only groups passive β, but if an active
		// frame ever reaches here, forbid transparent transport re-sends.
		ctx = resilience.WithNoResend(ctx)
	}
	results := invokeBatchCandidates(ctx, cands, nodeBreakers, p.Active, proto, conf, at)
	for bi, res := range results {
		if bi >= len(pos) {
			break
		}
		i := pos[bi]
		obsInvokeCalls.Inc()
		im.calls.Inc()
		if breakers != nil {
			breakers.OnResult(ref, res.Err == nil)
		}
		if res.Err != nil {
			obsInvokeFailures.Inc()
			im.failures.Inc()
			out[i].Err = fmt.Errorf("service: invoke %s on %s: %w", proto, ref, res.Err)
			continue
		}
		rows := make([]value.Tuple, len(res.Rows))
		var convErr error
		for j, row := range res.Rows {
			c, err := p.Output.Conforms(row)
			if err != nil {
				convErr = fmt.Errorf("service: invoke %s on %s: output tuple %d: %w", proto, ref, j, err)
				break
			}
			rows[j] = c
		}
		if convErr != nil {
			out[i].Err = convErr
			continue
		}
		out[i].Rows = rows
	}
	// A short frame (buggy transport) fails the unanswered tail explicitly
	// rather than returning silent empty results.
	for bi := len(results); bi < len(pos); bi++ {
		out[pos[bi]].Err = fmt.Errorf("service: invoke %s on %s: batch transport returned %d of %d results", proto, ref, len(results), len(pos))
	}
	return out
}

// invokeBatchCandidates dispatches one conformed frame across a reference's
// providers: the routing owner first, then re-dispatches ONLY the
// transport-failed items to each surviving replica in turn (batch frame if
// the replica has a batch transport, per-item calls otherwise). The same
// failover rule as invokeCandidates applies: application errors stick with
// the answering node, and active items never move after an ErrOutcomeUnknown.
// Results are positional over conf.
func invokeBatchCandidates(ctx context.Context, cands []provider, nb *resilience.BreakerSet, active bool, proto string, conf []value.Tuple, at Instant) []InvokeResult {
	results := make([]InvokeResult, len(conf))
	pending := make([]int, len(conf)) // indices into conf still unanswered
	for i := range pending {
		pending[i] = i
	}
	shortFrame := func(got, want int) error {
		return fmt.Errorf("batch transport returned %d of %d results", got, want)
	}
	for ci, c := range cands {
		if len(pending) == 0 {
			break
		}
		if ci > 0 {
			obsInvokeFailovers.Add(int64(len(pending)))
		}
		sub := make([]value.Tuple, len(pending))
		for k, i := range pending {
			sub[k] = conf[i]
		}
		var subRes []InvokeResult
		if cbs, ok := c.svc.(BatchCtxService); ok {
			subRes = cbs.InvokeBatchCtx(ctx, proto, sub, at)
		} else {
			subRes = make([]InvokeResult, len(sub))
			for k, in := range sub {
				rows, err := callService(ctx, c.svc, proto, in, at, 0)
				subRes[k] = InvokeResult{Rows: rows, Err: err}
			}
		}
		// Feed the node breaker once per frame: the node is down only if
		// EVERY item failed at the transport layer; any application-level
		// answer proves the node alive.
		var frameErr error
		allTransport := len(subRes) > 0
		for _, res := range subRes {
			if res.Err == nil || !resilience.IsTransport(res.Err) {
				allTransport = false
				break
			}
			frameErr = res.Err
		}
		if !allTransport {
			frameErr = nil
		}
		onProviderResult(nb, c, frameErr)
		// Split outcomes: transport-failed items that may legally move try
		// the next candidate; everything else is final.
		var retry []int
		for k, i := range pending {
			var res InvokeResult
			if k < len(subRes) {
				res = subRes[k]
			} else {
				res = InvokeResult{Err: shortFrame(len(subRes), len(sub))}
			}
			moveable := res.Err != nil && resilience.IsTransport(res.Err) &&
				ctx.Err() == nil && ci+1 < len(cands) &&
				(!active || errors.Is(res.Err, resilience.ErrUnreachable))
			if moveable {
				retry = append(retry, i)
				continue
			}
			results[i] = res
		}
		pending = retry
	}
	if len(pending) > 0 {
		// Candidates exhausted mid-split (should not happen: items only stay
		// pending when another candidate remains) — fail them explicitly.
		obsInvokeExhausted.Add(int64(len(pending)))
		for _, i := range pending {
			results[i] = InvokeResult{Err: fmt.Errorf("%w after %d providers", resilience.ErrUnreachable, len(cands))}
		}
	}
	return results
}
