package query

import (
	"fmt"

	"serena/internal/algebra"
	"serena/internal/service"
	"serena/internal/trace"
)

// Result bundles one evaluation's output: the resulting X-Relation, the
// action set triggered against the environment, and invocation statistics.
type Result struct {
	Relation *algebra.XRelation
	Actions  *ActionSet
	Stats    InvokeStats
}

// Evaluate runs a one-shot query at the given instant (Definition 7 / the
// evaluation model of Section 3.2: all invocations conceptually occur at
// instant τ; passive invocations are memoized within the instant).
func Evaluate(q Node, env Environment, reg *service.Registry, at service.Instant) (*Result, error) {
	return EvaluateCtx(q, NewContext(env, reg, at))
}

// EvaluateCtx runs a one-shot query with a caller-prepared context (custom
// error policy, invocation parallelism, disabled memo, …). When the caller
// did not install a span, the head-sampling decision is made here: a sampled
// one-shot evaluation gets a "query.eval" root so its β invocations appear
// in the trace ring alongside continuous-query ticks.
func EvaluateCtx(q Node, ctx *Context) (*Result, error) {
	if ctx.Span == nil && trace.Default.Active() {
		if root := trace.Default.StartRoot("query.eval"); root != nil {
			root.SetAttrInt("instant", int64(ctx.At))
			ctx.Span = root
			defer root.Finish()
		}
	}
	rel, err := ctx.Eval(q)
	ctx.PublishObsStats()
	if err != nil {
		return nil, err
	}
	return &Result{Relation: rel, Actions: ctx.Actions, Stats: ctx.Stats}, nil
}

// Verdict reports the outcome of an equivalence check between two queries.
type Verdict struct {
	Equivalent  bool
	SameResult  bool
	SameActions bool
	Reason      string
}

// CheckEquivalence tests q1 ≡ q2 over a concrete environment at one instant
// (Definition 9): both queries must produce the same resulting X-Relation
// AND the same action set. Note that Definition 9 quantifies over all
// environments; this check refutes equivalence or confirms it for the given
// p and τ — the standard testing-side approximation, used to validate the
// rewrite rules of Table 5 against randomized environments.
//
// Both queries are actually executed, so active invocations DO fire twice;
// run equivalence checks against simulated services only.
func CheckEquivalence(q1, q2 Node, env Environment, reg *service.Registry, at service.Instant) (Verdict, error) {
	r1, err := Evaluate(q1, env, reg, at)
	if err != nil {
		return Verdict{}, fmt.Errorf("query: evaluating q1: %w", err)
	}
	r2, err := Evaluate(q2, env, reg, at)
	if err != nil {
		return Verdict{}, fmt.Errorf("query: evaluating q2: %w", err)
	}
	v := Verdict{
		SameResult:  r1.Relation.Schema().Equal(r2.Relation.Schema()) && r1.Relation.EqualContents(r2.Relation),
		SameActions: r1.Actions.Equal(r2.Actions),
	}
	v.Equivalent = v.SameResult && v.SameActions
	switch {
	case v.Equivalent:
		v.Reason = "same result and same action set"
	case !v.SameResult && !v.SameActions:
		v.Reason = "results and action sets differ"
	case !v.SameResult:
		v.Reason = "results differ"
	default:
		v.Reason = fmt.Sprintf("action sets differ: %s vs %s", r1.Actions, r2.Actions)
	}
	return v, nil
}
