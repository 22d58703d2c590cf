// Package query implements Serena queries over a relational pervasive
// environment (Gripay et al., EDBT 2010, Definition 7): composable operator
// trees whose leaves are X-Relations, evaluated at a discrete time instant
// with action-set capture (Definition 8) and query-equivalence checking
// (Definition 9).
//
// The AST also carries the continuous operators Window and Stream
// (Section 4); those get their time-aware semantics from the continuous
// executor in internal/cq through ContinuousHooks — one-shot evaluation
// rejects them.
package query

import (
	"fmt"
	"strings"

	"serena/internal/algebra"
	"serena/internal/schema"
	"serena/internal/value"
)

// Node is one operator of a query tree.
type Node interface {
	// ResultSchema derives the output extended schema against an
	// environment, without evaluating tuples.
	ResultSchema(env Environment) (*schema.Extended, error)
	// Eval evaluates the subtree at the context's instant. Operand subtrees
	// are evaluated through ctx.Eval, never by calling their Eval directly,
	// so a profiled evaluation sees every operator.
	Eval(ctx *Context) (*algebra.XRelation, error)
	// Children returns the direct operand subtrees.
	Children() []Node
	// String renders the subtree in Serena Algebra Language syntax.
	String() string
}

// Environment provides the X-Relations a query ranges over — the relational
// pervasive environment (Definition 5/6 in spirit: a set of named
// X-Relations).
type Environment interface {
	// Relation resolves a base relation by name.
	Relation(name string) (*algebra.XRelation, error)
}

// MapEnv is an Environment backed by a map.
type MapEnv map[string]*algebra.XRelation

// Relation implements Environment.
func (m MapEnv) Relation(name string) (*algebra.XRelation, error) {
	r, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("query: unknown relation %q", name)
	}
	return r, nil
}

// ---------------------------------------------------------------------------

// Base is a leaf referencing a named X-Relation of the environment.
type Base struct{ Name string }

// NewBase returns a base-relation leaf.
func NewBase(name string) *Base { return &Base{Name: name} }

// ResultSchema implements Node.
func (b *Base) ResultSchema(env Environment) (*schema.Extended, error) {
	r, err := env.Relation(b.Name)
	if err != nil {
		return nil, err
	}
	return r.Schema(), nil
}

// Eval implements Node.
func (b *Base) Eval(ctx *Context) (*algebra.XRelation, error) {
	return ctx.Env.Relation(b.Name)
}

// Children implements Node.
func (b *Base) Children() []Node { return nil }

// String implements Node.
func (b *Base) String() string { return b.Name }

// ---------------------------------------------------------------------------

// Project is π_Y (Table 3a).
type Project struct {
	Child Node
	Attrs []string
}

// NewProject builds a projection node.
func NewProject(child Node, attrs ...string) *Project { return &Project{child, attrs} }

// ResultSchema implements Node.
func (p *Project) ResultSchema(env Environment) (*schema.Extended, error) {
	cs, err := p.Child.ResultSchema(env)
	if err != nil {
		return nil, err
	}
	return schema.ProjectSchema(cs, p.Attrs)
}

// Eval implements Node.
func (p *Project) Eval(ctx *Context) (*algebra.XRelation, error) {
	c, err := ctx.Eval(p.Child)
	if err != nil {
		return nil, err
	}
	return algebra.Project(c, p.Attrs)
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// String implements Node.
func (p *Project) String() string {
	return fmt.Sprintf("project[%s](%s)", strings.Join(p.Attrs, ", "), p.Child)
}

// ---------------------------------------------------------------------------

// Select is σ_F (Table 3b).
type Select struct {
	Child   Node
	Formula algebra.Formula
}

// NewSelect builds a selection node.
func NewSelect(child Node, f algebra.Formula) *Select { return &Select{child, f} }

// ResultSchema implements Node.
func (s *Select) ResultSchema(env Environment) (*schema.Extended, error) {
	cs, err := s.Child.ResultSchema(env)
	if err != nil {
		return nil, err
	}
	if err := s.Formula.Validate(cs); err != nil {
		return nil, err
	}
	return cs, nil
}

// Eval implements Node.
func (s *Select) Eval(ctx *Context) (*algebra.XRelation, error) {
	c, err := ctx.Eval(s.Child)
	if err != nil {
		return nil, err
	}
	return algebra.Select(c, s.Formula)
}

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Child} }

// String implements Node.
func (s *Select) String() string {
	return fmt.Sprintf("select[%s](%s)", s.Formula, s.Child)
}

// ---------------------------------------------------------------------------

// Rename is ρ_{A→B} (Table 3c).
type Rename struct {
	Child    Node
	Old, New string
}

// NewRename builds a renaming node.
func NewRename(child Node, oldName, newName string) *Rename {
	return &Rename{child, oldName, newName}
}

// ResultSchema implements Node.
func (r *Rename) ResultSchema(env Environment) (*schema.Extended, error) {
	cs, err := r.Child.ResultSchema(env)
	if err != nil {
		return nil, err
	}
	return schema.RenameSchema(cs, r.Old, r.New)
}

// Eval implements Node.
func (r *Rename) Eval(ctx *Context) (*algebra.XRelation, error) {
	c, err := ctx.Eval(r.Child)
	if err != nil {
		return nil, err
	}
	return algebra.Rename(c, r.Old, r.New)
}

// Children implements Node.
func (r *Rename) Children() []Node { return []Node{r.Child} }

// String implements Node.
func (r *Rename) String() string {
	return fmt.Sprintf("rename[%s -> %s](%s)", r.Old, r.New, r.Child)
}

// ---------------------------------------------------------------------------

// Join is the natural join ⋈ (Table 3d).
type Join struct{ Left, Right Node }

// NewJoin builds a natural-join node.
func NewJoin(left, right Node) *Join { return &Join{left, right} }

// ResultSchema implements Node.
func (j *Join) ResultSchema(env Environment) (*schema.Extended, error) {
	ls, err := j.Left.ResultSchema(env)
	if err != nil {
		return nil, err
	}
	rs, err := j.Right.ResultSchema(env)
	if err != nil {
		return nil, err
	}
	return schema.JoinSchema(ls, rs)
}

// Eval implements Node.
func (j *Join) Eval(ctx *Context) (*algebra.XRelation, error) {
	l, err := ctx.Eval(j.Left)
	if err != nil {
		return nil, err
	}
	r, err := ctx.Eval(j.Right)
	if err != nil {
		return nil, err
	}
	return algebra.NaturalJoin(l, r)
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// String implements Node.
func (j *Join) String() string { return fmt.Sprintf("join(%s, %s)", j.Left, j.Right) }

// ---------------------------------------------------------------------------

// SetOpKind selects a set operator.
type SetOpKind uint8

// The three set operators of Section 3.1.1.
const (
	UnionOp SetOpKind = iota
	IntersectOp
	DiffOp
)

var setOpNames = map[SetOpKind]string{UnionOp: "union", IntersectOp: "intersect", DiffOp: "diff"}

// SetOp is ∪, ∩ or − over two same-schema operands.
type SetOp struct {
	Kind        SetOpKind
	Left, Right Node
}

// NewUnion builds a union node.
func NewUnion(l, r Node) *SetOp { return &SetOp{UnionOp, l, r} }

// NewIntersect builds an intersection node.
func NewIntersect(l, r Node) *SetOp { return &SetOp{IntersectOp, l, r} }

// NewDiff builds a difference node.
func NewDiff(l, r Node) *SetOp { return &SetOp{DiffOp, l, r} }

// ResultSchema implements Node.
func (s *SetOp) ResultSchema(env Environment) (*schema.Extended, error) {
	ls, err := s.Left.ResultSchema(env)
	if err != nil {
		return nil, err
	}
	rs, err := s.Right.ResultSchema(env)
	if err != nil {
		return nil, err
	}
	if !ls.Equal(rs) {
		return nil, fmt.Errorf("query: %s requires identical schemas", setOpNames[s.Kind])
	}
	return ls, nil
}

// Eval implements Node.
func (s *SetOp) Eval(ctx *Context) (*algebra.XRelation, error) {
	l, err := ctx.Eval(s.Left)
	if err != nil {
		return nil, err
	}
	r, err := ctx.Eval(s.Right)
	if err != nil {
		return nil, err
	}
	switch s.Kind {
	case UnionOp:
		return algebra.Union(l, r)
	case IntersectOp:
		return algebra.Intersect(l, r)
	case DiffOp:
		return algebra.Diff(l, r)
	}
	return nil, fmt.Errorf("query: unknown set operator %d", s.Kind)
}

// Children implements Node.
func (s *SetOp) Children() []Node { return []Node{s.Left, s.Right} }

// String implements Node.
func (s *SetOp) String() string {
	return fmt.Sprintf("%s(%s, %s)", setOpNames[s.Kind], s.Left, s.Right)
}

// ---------------------------------------------------------------------------

// Assign is the assignment realization operator α (Table 3e). Exactly one
// of Src (attribute copy) or Const (constant) is used; Src takes precedence
// when non-empty.
type Assign struct {
	Child Node
	Attr  string
	Src   string
	Const value.Value
}

// NewAssignConst builds α_{attr := v}.
func NewAssignConst(child Node, attr string, v value.Value) *Assign {
	return &Assign{Child: child, Attr: attr, Const: v}
}

// NewAssignAttr builds α_{attr := src}.
func NewAssignAttr(child Node, attr, src string) *Assign {
	return &Assign{Child: child, Attr: attr, Src: src}
}

// ResultSchema implements Node.
func (a *Assign) ResultSchema(env Environment) (*schema.Extended, error) {
	cs, err := a.Child.ResultSchema(env)
	if err != nil {
		return nil, err
	}
	return schema.AssignSchema(cs, a.Attr, a.Src)
}

// Eval implements Node.
func (a *Assign) Eval(ctx *Context) (*algebra.XRelation, error) {
	c, err := ctx.Eval(a.Child)
	if err != nil {
		return nil, err
	}
	if a.Src != "" {
		return algebra.AssignAttr(c, a.Attr, a.Src)
	}
	return algebra.AssignConst(c, a.Attr, a.Const)
}

// Children implements Node.
func (a *Assign) Children() []Node { return []Node{a.Child} }

// String implements Node.
func (a *Assign) String() string {
	if a.Src != "" {
		return fmt.Sprintf("assign[%s := %s](%s)", a.Attr, a.Src, a.Child)
	}
	return fmt.Sprintf("assign[%s := %s](%s)", a.Attr, a.Const, a.Child)
}

// ---------------------------------------------------------------------------

// Invoke is the invocation realization operator β_bp (Table 3f). The
// binding pattern is resolved against the child's schema at planning time by
// prototype name and optional service attribute.
type Invoke struct {
	Child       Node
	Proto       string
	ServiceAttr string // optional disambiguation
}

// NewInvoke builds β over the named prototype's binding pattern.
func NewInvoke(child Node, proto, serviceAttr string) *Invoke {
	return &Invoke{Child: child, Proto: proto, ServiceAttr: serviceAttr}
}

// resolveBP finds the binding pattern in the child schema.
func (i *Invoke) resolveBP(cs *schema.Extended) (schema.BindingPattern, error) {
	return cs.FindBP(i.Proto, i.ServiceAttr)
}

// ResultSchema implements Node.
func (i *Invoke) ResultSchema(env Environment) (*schema.Extended, error) {
	cs, err := i.Child.ResultSchema(env)
	if err != nil {
		return nil, err
	}
	bp, err := i.resolveBP(cs)
	if err != nil {
		return nil, err
	}
	return schema.InvokeSchema(cs, bp)
}

// Eval implements Node. Under a continuous executor β fires only for tuples
// newly inserted into its operand (Section 4.2), so the hook takes over.
func (i *Invoke) Eval(ctx *Context) (*algebra.XRelation, error) {
	c, err := ctx.Eval(i.Child)
	if err != nil {
		return nil, err
	}
	if ctx.Continuous != nil {
		return ctx.Continuous.EvalInvoke(i, c)
	}
	bp, err := i.resolveBP(c.Schema())
	if err != nil {
		return nil, err
	}
	return algebra.Invoke(c, bp, ctx)
}

// Children implements Node.
func (i *Invoke) Children() []Node { return []Node{i.Child} }

// String implements Node.
func (i *Invoke) String() string {
	if i.ServiceAttr != "" {
		return fmt.Sprintf("invoke[%s@%s](%s)", i.Proto, i.ServiceAttr, i.Child)
	}
	return fmt.Sprintf("invoke[%s](%s)", i.Proto, i.Child)
}

// ---------------------------------------------------------------------------

// Window is W[period] (Section 4.2): over an XD-Relation it yields, at every
// instant, the multiset of tuples inserted during the last `period`
// instants. It reads the stream's event log, not an instantaneous relation,
// so its base child is never evaluated; only the continuous executor can
// evaluate it.
type Window struct {
	Child  Node
	Period int64
}

// NewWindow builds a window node.
func NewWindow(child Node, period int64) *Window { return &Window{child, period} }

// ResultSchema implements Node.
func (w *Window) ResultSchema(env Environment) (*schema.Extended, error) {
	return w.Child.ResultSchema(env)
}

// Eval implements Node. One-shot evaluation rejects windows.
func (w *Window) Eval(ctx *Context) (*algebra.XRelation, error) {
	if ctx.Continuous == nil {
		return nil, fmt.Errorf("query: window[%d] requires a continuous execution context (Section 4)", w.Period)
	}
	return ctx.Continuous.EvalWindow(w)
}

// Children implements Node.
func (w *Window) Children() []Node { return []Node{w.Child} }

// String implements Node.
func (w *Window) String() string { return fmt.Sprintf("window[%d](%s)", w.Period, w.Child) }

// ---------------------------------------------------------------------------

// StreamKind selects the streaming operator variant (Section 4.2).
type StreamKind uint8

// The three streaming variants of S[type].
const (
	StreamInsertion StreamKind = iota
	StreamDeletion
	StreamHeartbeat
)

var streamKindNames = map[StreamKind]string{
	StreamInsertion: "insertion", StreamDeletion: "deletion", StreamHeartbeat: "heartbeat",
}

// StreamKindFromString parses a streaming variant name.
func StreamKindFromString(s string) (StreamKind, bool) {
	for k, n := range streamKindNames {
		if n == s {
			return k, true
		}
	}
	return 0, false
}

// String returns the variant name.
func (k StreamKind) String() string { return streamKindNames[k] }

// Stream is S[type] (Section 4.2): it turns a finite XD-Relation into an
// infinite one by emitting, at each instant, the tuples inserted/deleted/
// present at that instant. Only the continuous executor evaluates it.
type Stream struct {
	Child Node
	Kind  StreamKind
}

// NewStream builds a streaming node.
func NewStream(child Node, kind StreamKind) *Stream { return &Stream{child, kind} }

// ResultSchema implements Node.
func (s *Stream) ResultSchema(env Environment) (*schema.Extended, error) {
	return s.Child.ResultSchema(env)
}

// Eval implements Node. One-shot evaluation rejects streaming.
func (s *Stream) Eval(ctx *Context) (*algebra.XRelation, error) {
	if ctx.Continuous == nil {
		return nil, fmt.Errorf("query: stream[%s] requires a continuous execution context (Section 4)", s.Kind)
	}
	c, err := ctx.Eval(s.Child)
	if err != nil {
		return nil, err
	}
	return ctx.Continuous.EvalStream(s, c)
}

// Children implements Node.
func (s *Stream) Children() []Node { return []Node{s.Child} }

// String implements Node.
func (s *Stream) String() string { return fmt.Sprintf("stream[%s](%s)", s.Kind, s.Child) }

// ---------------------------------------------------------------------------

// Walk visits the tree depth-first, parents before children.
func Walk(n Node, visit func(Node)) {
	visit(n)
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}

// WithChildren returns a copy of the operator n over replacement operands —
// the one place that knows how to rebuild each node kind, for tree
// transformations such as the rewriter's.
func WithChildren(n Node, kids []Node) (Node, error) {
	if want := len(n.Children()); len(kids) != want {
		return nil, fmt.Errorf("query: %T wants %d children, got %d", n, want, len(kids))
	}
	switch t := n.(type) {
	case *Base:
		return t, nil
	case *Project:
		return &Project{Child: kids[0], Attrs: t.Attrs}, nil
	case *Select:
		return &Select{Child: kids[0], Formula: t.Formula}, nil
	case *Rename:
		return &Rename{Child: kids[0], Old: t.Old, New: t.New}, nil
	case *Join:
		return &Join{Left: kids[0], Right: kids[1]}, nil
	case *SetOp:
		return &SetOp{Kind: t.Kind, Left: kids[0], Right: kids[1]}, nil
	case *Assign:
		return &Assign{Child: kids[0], Attr: t.Attr, Src: t.Src, Const: t.Const}, nil
	case *Invoke:
		return &Invoke{Child: kids[0], Proto: t.Proto, ServiceAttr: t.ServiceAttr}, nil
	case *Aggregate:
		return &Aggregate{Child: kids[0], GroupBy: t.GroupBy, Aggs: t.Aggs}, nil
	case *Window:
		return &Window{Child: kids[0], Period: t.Period}, nil
	case *Stream:
		return &Stream{Child: kids[0], Kind: t.Kind}, nil
	}
	return nil, fmt.Errorf("query: cannot rebuild node %T", n)
}
