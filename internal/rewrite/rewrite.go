// Package rewrite implements the query-rewriting rules of the Serena
// algebra (Gripay et al., EDBT 2010, Section 3.3 and Table 5), together
// with the classical relational rules that remain valid over X-Relations.
//
// Soundness is governed by query equivalence (Definition 9): a rewrite must
// preserve both the resulting X-Relation and the action set. Realization
// operators may therefore be reorganized freely only when the binding
// patterns involved are PASSIVE; any rule that changes the set of tuples
// reaching an ACTIVE invocation operator is illegal and is rejected by the
// rule guards below.
package rewrite

import (
	"fmt"

	"serena/internal/algebra"
	"serena/internal/query"
	"serena/internal/schema"
)

// Rule is one rewrite rule. Apply inspects only the root of the given node
// and either returns a rewritten tree (changed=true) or reports that the
// rule does not fire. Rules never mutate their input.
type Rule interface {
	// Name identifies the rule in plans and tests.
	Name() string
	// Apply attempts the rewrite at the root of n.
	Apply(n query.Node, env query.Environment) (out query.Node, changed bool, err error)
}

// attrsOf returns the attribute set referenced by a formula.
func attrsOf(f algebra.Formula) map[string]bool {
	s := map[string]bool{}
	for _, a := range f.Attrs(nil) {
		s[a] = true
	}
	return s
}

// outputAttrs returns the output attribute set of a binding pattern.
func outputAttrs(bp schema.BindingPattern) map[string]bool {
	s := map[string]bool{}
	for _, a := range bp.Proto.Output.Names() {
		s[a] = true
	}
	return s
}

// disjoint reports whether two string sets share no element.
func disjoint(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return false
		}
	}
	return true
}

// resolveInvokeBP resolves the binding pattern an Invoke node will use.
func resolveInvokeBP(inv *query.Invoke, env query.Environment) (schema.BindingPattern, error) {
	cs, err := inv.Child.ResultSchema(env)
	if err != nil {
		return schema.BindingPattern{}, err
	}
	return cs.FindBP(inv.Proto, inv.ServiceAttr)
}

// ---------------------------------------------------------------------------

// PushSelectBelowAssign implements the Table 5 selection/assignment rule:
//
//	σ_F(α_{A:=…}(r)) ≡ α_{A:=…}(σ_F(r))   if A ∉ F
//
// (pushing the selection below the assignment; always legal regardless of
// activity since assignment has no side effect).
type PushSelectBelowAssign struct{}

// Name implements Rule.
func (PushSelectBelowAssign) Name() string { return "push-select-below-assign" }

// Apply implements Rule.
func (PushSelectBelowAssign) Apply(n query.Node, env query.Environment) (query.Node, bool, error) {
	sel, ok := n.(*query.Select)
	if !ok {
		return n, false, nil
	}
	asg, ok := sel.Child.(*query.Assign)
	if !ok {
		return n, false, nil
	}
	if attrsOf(sel.Formula)[asg.Attr] {
		return n, false, nil // F references the realized attribute
	}
	inner := query.NewSelect(asg.Child, sel.Formula)
	// The pushed selection must stay valid over the child schema (F may
	// reference only real attributes there).
	if cs, err := asg.Child.ResultSchema(env); err != nil {
		return n, false, err
	} else if err := sel.Formula.Validate(cs); err != nil {
		return n, false, nil // e.g. F uses an attribute that is virtual below α
	}
	out := &query.Assign{Child: inner, Attr: asg.Attr, Src: asg.Src, Const: asg.Const}
	return out, true, nil
}

// ---------------------------------------------------------------------------

// PushSelectBelowInvoke implements the Table 5 selection/invocation rule:
//
//	σ_F(β_bp(r)) ≡ β_bp(σ_F(r))   if F ∩ schema(Output_bp) = ∅ and bp passive
//
// This is the headline optimization: it reduces the number of service
// invocations. It is ILLEGAL for active binding patterns — filtering before
// an active invocation shrinks the action set (Example 7: Q1 vs Q1').
type PushSelectBelowInvoke struct{}

// Name implements Rule.
func (PushSelectBelowInvoke) Name() string { return "push-select-below-invoke" }

// Apply implements Rule.
func (PushSelectBelowInvoke) Apply(n query.Node, env query.Environment) (query.Node, bool, error) {
	sel, ok := n.(*query.Select)
	if !ok {
		return n, false, nil
	}
	inv, ok := sel.Child.(*query.Invoke)
	if !ok {
		return n, false, nil
	}
	bp, err := resolveInvokeBP(inv, env)
	if err != nil {
		return n, false, err
	}
	if bp.Active() {
		return n, false, nil // would change the action set
	}
	if !disjoint(attrsOf(sel.Formula), outputAttrs(bp)) {
		return n, false, nil // F depends on the invocation's outputs
	}
	if cs, err := inv.Child.ResultSchema(env); err != nil {
		return n, false, err
	} else if err := sel.Formula.Validate(cs); err != nil {
		return n, false, nil
	}
	out := query.NewInvoke(query.NewSelect(inv.Child, sel.Formula), inv.Proto, inv.ServiceAttr)
	return out, true, nil
}

// ---------------------------------------------------------------------------

// PushProjectBelowAssign implements the Table 5 projection/assignment rule:
//
//	π_L(α_{A:=B}(r)) ≡ α_{A:=B}(π_L(r))   if A, B ∈ L
//
// For the constant form only A ∈ L is required.
type PushProjectBelowAssign struct{}

// Name implements Rule.
func (PushProjectBelowAssign) Name() string { return "push-project-below-assign" }

// Apply implements Rule.
func (PushProjectBelowAssign) Apply(n query.Node, env query.Environment) (query.Node, bool, error) {
	prj, ok := n.(*query.Project)
	if !ok {
		return n, false, nil
	}
	asg, ok := prj.Child.(*query.Assign)
	if !ok {
		return n, false, nil
	}
	keep := map[string]bool{}
	for _, a := range prj.Attrs {
		keep[a] = true
	}
	if !keep[asg.Attr] {
		return n, false, nil
	}
	if asg.Src != "" && !keep[asg.Src] {
		return n, false, nil
	}
	out := &query.Assign{Child: query.NewProject(asg.Child, prj.Attrs...), Attr: asg.Attr, Src: asg.Src, Const: asg.Const}
	// Verify the inner projection is legal and produces the same schema.
	if err := validSameSchema(n, out, env); err != nil {
		return n, false, nil //nolint:nilerr // rule simply does not fire
	}
	return out, true, nil
}

// ---------------------------------------------------------------------------

// PushProjectBelowInvoke implements the Table 5 projection/invocation rule:
//
//	π_L(β_bp(r)) ≡ β_bp(π_L(r))
//
// if L keeps bp's service attribute, input attributes and output attributes,
// and bp is passive (for an active bp the rewrite is still result-correct
// but the guard keeps the conservative reading of Section 3.3: active
// invocation operators are not reorganized). Both sides invoke once per
// surviving tuple; since L ⊇ the attributes bp needs, the same invocations
// happen.
type PushProjectBelowInvoke struct{}

// Name implements Rule.
func (PushProjectBelowInvoke) Name() string { return "push-project-below-invoke" }

// Apply implements Rule.
func (PushProjectBelowInvoke) Apply(n query.Node, env query.Environment) (query.Node, bool, error) {
	prj, ok := n.(*query.Project)
	if !ok {
		return n, false, nil
	}
	inv, ok := prj.Child.(*query.Invoke)
	if !ok {
		return n, false, nil
	}
	bp, err := resolveInvokeBP(inv, env)
	if err != nil {
		return n, false, err
	}
	if bp.Active() {
		return n, false, nil
	}
	keep := map[string]bool{}
	for _, a := range prj.Attrs {
		keep[a] = true
	}
	if !keep[bp.ServiceAttr] || !bp.Proto.Input.SubsetOfNames(keep) || !bp.Proto.Output.SubsetOfNames(keep) {
		return n, false, nil
	}
	out := query.NewInvoke(query.NewProject(inv.Child, prj.Attrs...), inv.Proto, inv.ServiceAttr)
	if err := validSameSchema(n, out, env); err != nil {
		return n, false, nil //nolint:nilerr
	}
	return out, true, nil
}

// ---------------------------------------------------------------------------

// PushAssignBelowJoin implements the Table 5 assignment/join rule:
//
//	α_{A:=…}(r1 ⋈ r2) ≡ α_{A:=…}(r1) ⋈ r2
//
// if A (and B for the attribute form) belong to schema(R1), A is not in
// schema(R2) (so the join treats it identically on both sides), and A's
// realization does not create a new join predicate.
type PushAssignBelowJoin struct{}

// Name implements Rule.
func (PushAssignBelowJoin) Name() string { return "push-assign-below-join" }

// Apply implements Rule.
func (PushAssignBelowJoin) Apply(n query.Node, env query.Environment) (query.Node, bool, error) {
	asg, ok := n.(*query.Assign)
	if !ok {
		return n, false, nil
	}
	jn, ok := asg.Child.(*query.Join)
	if !ok {
		return n, false, nil
	}
	ls, err := jn.Left.ResultSchema(env)
	if err != nil {
		return n, false, err
	}
	rs, err := jn.Right.ResultSchema(env)
	if err != nil {
		return n, false, err
	}
	try := func(side query.Node, own, other *schema.Extended, buildJoin func(query.Node) *query.Join) (query.Node, bool) {
		if !own.Has(asg.Attr) || other.Has(asg.Attr) {
			return nil, false
		}
		if asg.Src != "" && !own.Has(asg.Src) {
			return nil, false
		}
		inner := &query.Assign{Child: side, Attr: asg.Attr, Src: asg.Src, Const: asg.Const}
		out := buildJoin(inner)
		if err := validSameSchema(n, out, env); err != nil {
			return nil, false
		}
		return out, true
	}
	if out, ok := try(jn.Left, ls, rs, func(in query.Node) *query.Join { return query.NewJoin(in, jn.Right) }); ok {
		return out, true, nil
	}
	if out, ok := try(jn.Right, rs, ls, func(in query.Node) *query.Join { return query.NewJoin(jn.Left, in) }); ok {
		return out, true, nil
	}
	return n, false, nil
}

// ---------------------------------------------------------------------------

// PushSelectBelowJoin is the classical rule σ_F(r1 ⋈ r2) ≡ σ_F(r1) ⋈ r2
// when F only references attributes real in r1 (symmetrically for r2). It
// remains valid over X-Relations since selection has no effect on binding
// patterns.
type PushSelectBelowJoin struct{}

// Name implements Rule.
func (PushSelectBelowJoin) Name() string { return "push-select-below-join" }

// Apply implements Rule.
func (PushSelectBelowJoin) Apply(n query.Node, env query.Environment) (query.Node, bool, error) {
	sel, ok := n.(*query.Select)
	if !ok {
		return n, false, nil
	}
	jn, ok := sel.Child.(*query.Join)
	if !ok {
		return n, false, nil
	}
	ls, err := jn.Left.ResultSchema(env)
	if err != nil {
		return n, false, err
	}
	rs, err := jn.Right.ResultSchema(env)
	if err != nil {
		return n, false, err
	}
	fa := attrsOf(sel.Formula)
	realIn := func(s *schema.Extended) bool {
		for a := range fa {
			if !s.IsReal(a) {
				return false
			}
		}
		return true
	}
	// If the formula's attributes are real on one side AND shared join
	// attributes keep their semantics, push there. Attributes real on one
	// side and present on the other would be filtered asymmetrically, so we
	// require them absent from the other side OR real on both (then push to
	// left only is still sound because the join equates them).
	if realIn(ls) && sideSafe(fa, rs) {
		out := query.NewJoin(query.NewSelect(jn.Left, sel.Formula), jn.Right)
		if err := validSameSchema(n, out, env); err == nil {
			return out, true, nil
		}
		return n, false, nil
	}
	if realIn(rs) && sideSafe(fa, ls) {
		out := query.NewJoin(jn.Left, query.NewSelect(jn.Right, sel.Formula))
		if err := validSameSchema(n, out, env); err == nil {
			return out, true, nil
		}
		return n, false, nil
	}
	return n, false, nil
}

// sideSafe reports whether pushing a formula with attribute set fa away from
// the `other` operand is sound: every formula attribute present in `other`
// must be real there (then the join predicate equates the two sides and
// filtering one side filters the join identically).
func sideSafe(fa map[string]bool, other *schema.Extended) bool {
	for a := range fa {
		if other.Has(a) && !other.IsReal(a) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------

// MergeSelects fuses σ_F(σ_G(r)) into σ_{F∧G}(r).
type MergeSelects struct{}

// Name implements Rule.
func (MergeSelects) Name() string { return "merge-selects" }

// Apply implements Rule.
func (MergeSelects) Apply(n query.Node, _ query.Environment) (query.Node, bool, error) {
	outer, ok := n.(*query.Select)
	if !ok {
		return n, false, nil
	}
	inner, ok := outer.Child.(*query.Select)
	if !ok {
		return n, false, nil
	}
	return query.NewSelect(inner.Child, algebra.NewAnd(inner.Formula, outer.Formula)), true, nil
}

// ---------------------------------------------------------------------------

// validSameSchema checks that the rewritten tree still plans and produces
// the same result schema as the original — a structural sanity guard every
// rule runs before committing.
func validSameSchema(before, after query.Node, env query.Environment) error {
	bs, err := before.ResultSchema(env)
	if err != nil {
		return err
	}
	as, err := after.ResultSchema(env)
	if err != nil {
		return err
	}
	if !bs.Equal(as) {
		return fmt.Errorf("rewrite: schema changed from %v to %v", bs.Names(), as.Names())
	}
	return nil
}

// DefaultRules returns the standard rule set in application order.
func DefaultRules() []Rule {
	return []Rule{
		MergeSelects{},
		PushSelectBelowAssign{},
		PushSelectBelowInvoke{},
		PushSelectBelowJoin{},
		PushProjectBelowAssign{},
		PushProjectBelowInvoke{},
		PushAssignBelowJoin{},
	}
}

// Step is one applied rewrite, for plan explanation.
type Step struct {
	Rule   string
	Result string // SAL rendering after the step
}

// Apply rewrites the tree bottom-up with the given rules until fixpoint,
// returning the rewritten tree and the applied steps. The maximum number of
// passes bounds pathological oscillation (rules here are monotone pushes, so
// the bound is never hit in practice).
func Apply(n query.Node, env query.Environment, rules []Rule) (query.Node, []Step, error) {
	var steps []Step
	const maxPasses = 64
	for pass := 0; pass < maxPasses; pass++ {
		out, changed, err := rewriteOnce(n, env, rules, &steps)
		if err != nil {
			return nil, nil, err
		}
		n = out
		if !changed {
			return n, steps, nil
		}
	}
	return n, steps, fmt.Errorf("rewrite: fixpoint not reached after %d passes", 64)
}

// rewriteOnce performs one bottom-up pass, applying at most one rule per
// node position.
func rewriteOnce(n query.Node, env query.Environment, rules []Rule, steps *[]Step) (query.Node, bool, error) {
	// Rewrite children first.
	kids := n.Children()
	changed := false
	for i, c := range kids {
		out, ch, err := rewriteOnce(c, env, rules, steps)
		if err != nil {
			return nil, false, err
		}
		if ch {
			kids[i], changed = out, true
		}
	}
	if changed {
		var err error
		if n, err = query.WithChildren(n, kids); err != nil {
			return nil, false, err
		}
	}
	// Then try rules at this node.
	for _, rule := range rules {
		out, ch, err := rule.Apply(n, env)
		if err != nil {
			return nil, false, err
		}
		if ch {
			*steps = append(*steps, Step{Rule: rule.Name(), Result: out.String()})
			return out, true, nil
		}
	}
	return n, changed, nil
}
