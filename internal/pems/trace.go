package pems

import (
	"context"
	"fmt"
	"log/slog"

	"serena/internal/query"
	"serena/internal/trace"
)

// InvocationTrace is the outcome of a .trace run: the forced end-to-end
// trace of one query evaluation, with its rendered span tree (tick-less
// one-shot root, per-tuple β spans, wire round trips, server-side spans
// when the environment is distributed).
type InvocationTrace struct {
	TraceID uint64
	Tree    string
	Result  *query.Result
}

// TraceOneShot evaluates a one-shot query (SAL or Serena SQL) with
// tracing FORCED for this evaluation, regardless of the
// sampling period — the user asked for this query. Active invocations fire
// for real, exactly like OneShot.
func (p *PEMS) TraceOneShot(src string) (*InvocationTrace, error) {
	q, err := parseQuery(src, false)
	if err != nil {
		return nil, err
	}
	ctx := p.oneShotContext()
	n, err := q.Plan(ctx.Env)
	if err != nil {
		return nil, err
	}
	tr := p.registry.Tracer()
	root := tr.ForceRoot("query.eval")
	root.SetAttrInt("instant", int64(ctx.At))
	ctx.Span = root
	res, evalErr := query.EvaluateCtx(n, ctx)
	if evalErr != nil {
		root.SetAttr("error", evalErr.Error())
	}
	root.Finish()
	slog.LogAttrs(context.Background(), slog.LevelDebug, "pems: traced one-shot evaluation",
		append(root.LogAttrs(), slog.Int64("instant", int64(ctx.At)))...)
	out := &InvocationTrace{
		TraceID: root.TraceID,
		Tree:    trace.RenderTree(tr.TraceSpans(root.TraceID)),
		Result:  res,
	}
	if evalErr != nil {
		// A failed evaluation still carries a partial trace (the error is
		// annotated on the span that raised it); hand both back.
		return out, fmt.Errorf("pems: traced evaluation: %w", evalErr)
	}
	return out, nil
}

// Lineage reports every retained β invocation that fed the named continuous
// query (or "oneshot" evaluations) and touched the given tuple-key fragment
// — the realized counterpart of the query's action set (Definition 8).
// Empty strings match everything on that axis.
func (p *PEMS) Lineage(queryName, key string) []trace.LineageEntry {
	return p.registry.Tracer().Lineage(queryName, key, trace.SpanInvoke)
}
