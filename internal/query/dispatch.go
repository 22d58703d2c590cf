package query

import (
	"sync"
	"sync/atomic"

	"serena/internal/algebra"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/trace"
	"serena/internal/value"
)

// batchSize bounds how many passive invocations of one service InvokeAll
// groups into one registry dispatch (one wire frame for remote services).
// Large enough to amortize a wire round trip, small enough that a frame
// stays cheap to encode and one slow item does not stall hundreds.
const batchSize = 64

// maxBatch is the largest group InvokeAll packs into one dispatch; values
// < 2 turn grouping off. Grouping exists to amortize transport round trips,
// so it is on only when the registry holds a batch-capable service (a
// remote proxy); in a pure-local environment it would be pure overhead.
func (c *Context) maxBatch() int {
	if c.Registry != nil && !c.Registry.HasBatchTransport() {
		return 1
	}
	return batchSize
}

// InvokeAll implements algebra.Invoker. It is the only place a β job is
// dispatched, and it applies the invocation semantics job by job:
//
//   - an active job is recorded in the action set (Definition 8) before it
//     fires, and is never memoized or grouped; jobs with the same (ref,
//     input) are one action, which fires once and whose result every such
//     job shares;
//   - a passive job goes through the per-instant memo (Section 3.2
//     determinism), which also coalesces concurrent duplicates;
//   - with grouping on (see maxBatch), identical passive jobs fold into
//     one call, and the calls are grouped by service reference into
//     batchSize-bounded frames sent through Registry.InvokeAll;
//   - every dispatch runs on one pool of Parallelism workers, and no new
//     dispatch starts after a fatal outcome;
//   - a failure goes through the degradation policy per job: the result
//     carries the raw failure as Cause, and Err only when the policy
//     aborts.
//
// InvokeAll is safe for concurrent use.
func (c *Context) InvokeAll(bp schema.BindingPattern, jobs []algebra.InvokeJob) []algebra.InvokeResult {
	out := make([]algebra.InvokeResult, len(jobs))
	switch maxB := c.maxBatch(); {
	case len(jobs) == 1: // no pool for a lone job (the continuous executor's active calls)
		out[0] = c.invokeOne(bp, jobs[0].Ref, jobs[0].Input)
	case bp.Active():
		c.invokeActions(bp, jobs, out)
	case maxB > 1 && len(jobs) > 1:
		c.invokeGrouped(bp, jobs, out, maxB)
	default:
		c.fanOut(len(jobs), func(i int) bool {
			out[i] = c.invokeOne(bp, jobs[i].Ref, jobs[i].Input)
			return out[i].Err == nil
		})
	}
	return out
}

// fanOut runs do(0), …, do(n-1) on the dispatch pool: up to Parallelism
// workers, or in order on the caller's goroutine when that is below 2. do
// reports false on a fatal outcome; from then on no new dispatch starts —
// under FAIL semantics every extra call would be a side effect whose result
// is thrown away — while dispatches already running finish.
func (c *Context) fanOut(n int, do func(int) bool) {
	workers := min(c.Parallelism, n)
	if workers < 2 {
		for i := 0; i < n; i++ {
			if !do(i) {
				return
			}
		}
		return
	}
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if !do(i) {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
}

// invokeActions fires each distinct action of an active work list once, on
// the dispatch pool: the action set is a set (Definition 8), so a job
// whose (ref, input) an earlier job already carries shares that job's
// result instead of firing again.
func (c *Context) invokeActions(bp schema.BindingPattern, jobs []algebra.InvokeJob, out []algebra.InvokeResult) {
	src := make([]int, len(jobs)) // the first job carrying each job's action
	first := make(map[string]int, len(jobs))
	for i, j := range jobs {
		k := j.Ref + "|" + j.Input.Key()
		f, ok := first[k]
		if !ok {
			f, first[k] = i, i
		}
		src[i] = f
	}
	c.fanOut(len(jobs), func(i int) bool {
		if src[i] != i {
			return true
		}
		out[i] = c.invokeOne(bp, jobs[i].Ref, jobs[i].Input)
		return out[i].Err == nil
	})
	for i, f := range src {
		out[i] = out[f]
	}
}

// invokeOne dispatches one job on its own.
func (c *Context) invokeOne(bp schema.BindingPattern, ref string, input value.Tuple) algebra.InvokeResult {
	span := invokeSpan(c.Span, bp, ref, input)
	var flight *service.Flight
	if bp.Active() {
		c.Actions.Add(Action{BP: bp.ID(), Ref: ref, Input: input.Clone()})
		c.bump(&c.Stats.Active)
		span.SetAttr("mode", "active")
	} else {
		if c.Memo != nil {
			rows, f, st := c.Memo.Begin(bp.Proto.Name, ref, input)
			switch st {
			case service.BeginHit:
				return c.invoked(span, &c.Stats.Memoized, "memoized", rows)
			case service.BeginShared:
				rows, err := f.Wait()
				if err != nil {
					return c.degrade(bp, ref, input, err, span)
				}
				return c.invoked(span, &c.Stats.Coalesced, "coalesced", rows)
			}
			flight = f
		}
		span.SetAttr("mode", "passive")
	}
	rows, err := c.Registry.InvokeCtx(trace.ContextWith(c.ctx(), span), bp.Proto.Name, ref, input, c.At)
	if flight != nil {
		flight.Complete(rows, err)
	}
	if err != nil {
		return c.degrade(bp, ref, input, err, span)
	}
	if bp.Active() {
		return c.invoked(span, nil, "", rows)
	}
	return c.invoked(span, &c.Stats.Passive, "", rows)
}

// groupCall is one distinct (ref, input) pair of a grouped work list: the
// job indexes folded into it and, once dispatched, its memo role and
// outcome.
type groupCall struct {
	ref    string
	input  value.Tuple
	idxs   []int
	flight *service.Flight
	status service.BeginStatus
	rows   []value.Tuple
	err    error
}

// invokeGrouped dispatches a passive work list as frames: identical jobs
// fold into one call (kept apart when the memo is off, the every-tuple-
// re-invokes ablation), and the calls are grouped by service reference, in
// first-appearance order, into frames of at most maxB.
//
// Its metrics count grouped work lists (query.batch.plans), the β jobs
// entering them (jobs), duplicate jobs folded before dispatch (deduped) and
// grouped registry dispatches, one per frame — for remote services, one
// wire frame each (dispatches).
func (c *Context) invokeGrouped(bp schema.BindingPattern, jobs []algebra.InvokeJob, out []algebra.InvokeResult, maxB int) {
	c.count("query.batch.plans", 1)
	c.count("query.batch.jobs", int64(len(jobs)))
	span := c.Span.Child("invoke.batch")
	if span != nil {
		span.SetAttr("bp", bp.ID())
		span.SetAttrInt("jobs", int64(len(jobs)))
	}

	calls := make([]groupCall, 0, len(jobs))
	var unique map[string]int
	if c.Memo != nil {
		unique = make(map[string]int, len(jobs))
	}
	for i, j := range jobs {
		if unique != nil {
			k := j.Ref + "|" + j.Input.Key()
			if ci, ok := unique[k]; ok {
				calls[ci].idxs = append(calls[ci].idxs, i)
				continue
			}
			unique[k] = len(calls)
		}
		calls = append(calls, groupCall{ref: j.Ref, input: j.Input, idxs: []int{i}})
	}
	c.count("query.batch.deduped", int64(len(jobs)-len(calls)))
	byRef := make(map[string][]*groupCall)
	var refs []string
	for i := range calls {
		ref := calls[i].ref
		if _, ok := byRef[ref]; !ok {
			refs = append(refs, ref)
		}
		byRef[ref] = append(byRef[ref], &calls[i])
	}
	var frames [][]*groupCall
	for _, ref := range refs {
		group := byRef[ref]
		for len(group) > maxB {
			frames = append(frames, group[:maxB])
			group = group[maxB:]
		}
		frames = append(frames, group)
	}

	c.fanOut(len(frames), func(f int) bool {
		return c.dispatchFrame(bp, span, frames[f], out)
	})
	if span != nil {
		var dispatched int64 // calls of frames that ran and owned their key
		for i := range calls {
			if calls[i].status == service.BeginOwner {
				dispatched++
			}
		}
		span.SetAttrInt("unique", int64(len(calls)))
		span.SetAttrInt("dispatched", dispatched)
		span.Finish()
	}
}

// dispatchFrame runs one frame: each call consults the memo, the calls it
// owns go to the registry together (a single call as a plain invocation),
// and the outcomes fan back out to the folded jobs. It reports false when
// a job's outcome is fatal.
func (c *Context) dispatchFrame(bp schema.BindingPattern, span *trace.Span, frame []*groupCall, out []algebra.InvokeResult) bool {
	proto := bp.Proto.Name
	owned := make([]*groupCall, 0, len(frame))
	for _, gc := range frame {
		gc.status = service.BeginOwner
		if c.Memo != nil {
			gc.rows, gc.flight, gc.status = c.Memo.Begin(proto, gc.ref, gc.input)
		}
		if gc.status == service.BeginOwner {
			owned = append(owned, gc)
		}
	}
	ctx := trace.ContextWith(c.ctx(), span)
	switch len(owned) {
	case 0:
	case 1:
		gc := owned[0]
		gc.rows, gc.err = c.Registry.InvokeCtx(ctx, proto, gc.ref, gc.input, c.At)
	default:
		inputs := make([]value.Tuple, len(owned))
		for k, gc := range owned {
			inputs[k] = gc.input
		}
		for k, res := range c.Registry.InvokeAll(ctx, proto, owned[0].ref, inputs, c.At) {
			owned[k].rows, owned[k].err = res.Rows, res.Err
		}
	}
	if len(owned) > 0 {
		c.count("query.batch.dispatches", 1)
	}
	// Owned flights complete before any shared one is awaited, so two
	// frames waiting on each other's keys cannot deadlock.
	for _, gc := range owned {
		if gc.flight != nil {
			gc.flight.Complete(gc.rows, gc.err)
		}
	}

	ok := true
	for _, gc := range frame {
		if gc.status == service.BeginShared {
			gc.rows, gc.err = gc.flight.Wait()
		}
		for pos, i := range gc.idxs {
			// Per-job β spans survive grouping: lineage still records one
			// "invoke" span per job, with the frame's span as their parent.
			ts := invokeSpan(span, bp, gc.ref, gc.input)
			if gc.err != nil {
				out[i] = c.degrade(bp, gc.ref, gc.input, gc.err, ts)
				ok = ok && out[i].Err == nil
				continue
			}
			// Count like the sequential path would: the first job of a
			// folded call is the physical one, later jobs are memo hits.
			switch {
			case gc.status == service.BeginHit || pos > 0:
				out[i] = c.invoked(ts, &c.Stats.Memoized, "memoized", gc.rows)
			case gc.status == service.BeginShared:
				out[i] = c.invoked(ts, &c.Stats.Coalesced, "coalesced", gc.rows)
			default:
				out[i] = c.invoked(ts, &c.Stats.Passive, "passive", gc.rows)
			}
		}
	}
	return ok
}

// invokeSpan opens a per-job β span under parent (nil when unsampled).
func invokeSpan(parent *trace.Span, bp schema.BindingPattern, ref string, input value.Tuple) *trace.Span {
	if parent == nil {
		return nil
	}
	span := parent.Child(trace.SpanInvoke)
	span.SetAttr("bp", bp.ID())
	span.SetAttr("ref", ref)
	span.SetAttr("in", input.String())
	return span
}

// invoked settles a successful job: it bumps counter (when non-nil),
// stamps and finishes the job's span, and returns the rows.
func (c *Context) invoked(span *trace.Span, counter *int64, mode string, rows []value.Tuple) algebra.InvokeResult {
	if counter != nil {
		c.bump(counter)
	}
	if span != nil {
		if mode != "" {
			span.SetAttr("mode", mode)
		}
		span.SetAttrInt("rows", int64(len(rows)))
		span.Finish()
	}
	return algebra.InvokeResult{Rows: rows}
}

// degrade applies the degradation policy to one job whose invocation failed
// with cause. Err is set when the policy aborts the operator; otherwise the
// failure is absorbed and Rows stands in for the invocation result: none
// (drop the tuple) or a single all-NULL row (NullFill realizes the virtual
// attributes as unknown). Absorbed results must never be cached across
// instants — the tuple is retried at the next one.
func (c *Context) degrade(bp schema.BindingPattern, ref string, input value.Tuple, cause error, span *trace.Span) algebra.InvokeResult {
	res := algebra.InvokeResult{Cause: cause}
	span.SetAttr("error", cause.Error())
	defer span.Finish()
	if c.Degradation == resilience.Default {
		// Legacy contract: no collector → fail fast; a collector decides
		// by its return value (nil = skip the tuple).
		if c.OnInvokeError == nil {
			span.SetAttr("degraded", "failfast")
			res.Err = cause
			return res
		}
		c.statsMu.Lock()
		res.Err = c.OnInvokeError(bp, ref, input, cause)
		c.statsMu.Unlock()
		if res.Err == nil {
			c.count("query.invoke.degraded", 1)
			span.SetAttr("degraded", "skip")
		} else {
			span.SetAttr("degraded", "abort")
		}
		return res
	}
	// Explicit policy: the collector observes (a non-nil return still
	// vetoes and aborts the query), then the policy decides.
	if c.OnInvokeError != nil {
		c.statsMu.Lock()
		res.Err = c.OnInvokeError(bp, ref, input, cause)
		c.statsMu.Unlock()
		if res.Err != nil {
			span.SetAttr("degraded", "abort")
			return res
		}
	}
	switch c.Degradation {
	case resilience.SkipTuple:
		c.count("query.invoke.degraded", 1)
		span.SetAttr("degraded", "skip")
	case resilience.NullFill:
		c.count("query.invoke.degraded", 1)
		span.SetAttr("degraded", "nullfill")
		row := make(value.Tuple, bp.Proto.Output.Arity())
		for i := range row {
			row[i] = value.NewNull()
		}
		res.Rows = []value.Tuple{row}
	default: // resilience.FailFast
		span.SetAttr("degraded", "failfast")
		res.Err = cause
	}
	return res
}
