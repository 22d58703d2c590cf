package algebra

import (
	"fmt"

	"serena/internal/schema"
	"serena/internal/value"
)

// InvokeJob is one element of an invocation operator's work list: the
// service reference an operand tuple names and the prototype's input
// attributes projected from it.
type InvokeJob struct {
	Ref   string
	Input value.Tuple
}

// InvokeResult is one job's outcome. Err aborts the operator. Cause is the
// raw invocation failure, kept when the invoker's degradation policy
// absorbed it; Rows then holds the policy's stand-in rows.
type InvokeResult struct {
	Rows  []value.Tuple
	Err   error
	Cause error
}

// Absorbed reports whether the invocation failed and the invoker's policy
// absorbed the failure instead of aborting.
func (r InvokeResult) Absorbed() bool { return r.Cause != nil && r.Err == nil }

// Invoker performs the invocations of one invocation operator call (the
// paper's invoke_ψ of Definition 1, as used by the invocation operator of
// Table 3f). InvokeAll receives the whole work list and returns positional
// results; implementations own memoization of passive prototypes,
// action-set recording for active ones, concurrency, and the actual local
// or remote calls.
type Invoker interface {
	InvokeAll(bp schema.BindingPattern, jobs []InvokeJob) []InvokeResult
}

// InvokerFunc adapts a per-job function to the Invoker interface.
type InvokerFunc func(bp schema.BindingPattern, ref string, input value.Tuple) ([]value.Tuple, error)

// InvokeAll implements Invoker: it calls f for each job in order and stops
// at the first error.
func (f InvokerFunc) InvokeAll(bp schema.BindingPattern, jobs []InvokeJob) []InvokeResult {
	out := make([]InvokeResult, len(jobs))
	for i, j := range jobs {
		if out[i].Rows, out[i].Err = f(bp, j.Ref, j.Input); out[i].Err != nil {
			break
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Set operators (Section 3.1.1): defined over two X-Relations with the same
// extended schema; the result keeps that schema.

func requireSameSchema(op string, r1, r2 *XRelation) error {
	if !r1.Schema().Equal(r2.Schema()) {
		return fmt.Errorf("algebra: %s requires identical extended schemas (%s vs %s)",
			op, r1.Schema().Name(), r2.Schema().Name())
	}
	return nil
}

// Union computes r1 ∪ r2.
func Union(r1, r2 *XRelation) (*XRelation, error) {
	if err := requireSameSchema("union", r1, r2); err != nil {
		return nil, err
	}
	out := Empty(r1.Schema())
	for _, t := range r1.Tuples() {
		out.add(t)
	}
	for _, t := range r2.Tuples() {
		out.add(t)
	}
	return out, nil
}

// Intersect computes r1 ∩ r2.
func Intersect(r1, r2 *XRelation) (*XRelation, error) {
	if err := requireSameSchema("intersect", r1, r2); err != nil {
		return nil, err
	}
	out := Empty(r1.Schema())
	for _, t := range r1.Tuples() {
		if r2.Contains(t) {
			out.add(t)
		}
	}
	return out, nil
}

// Diff computes r1 − r2.
func Diff(r1, r2 *XRelation) (*XRelation, error) {
	if err := requireSameSchema("difference", r1, r2); err != nil {
		return nil, err
	}
	out := Empty(r1.Schema())
	for _, t := range r1.Tuples() {
		if !r2.Contains(t) {
			out.add(t)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Relational operators (Section 3.1.2, Table 3 a–d).

// Project computes π_Y(r) (Table 3a): the schema shrinks to Y (binding
// patterns that lose their service, input or output attributes are dropped)
// and tuples are projected onto the real part of Y.
func Project(r *XRelation, names []string) (*XRelation, error) {
	outSch, err := schema.ProjectSchema(r.Schema(), names)
	if err != nil {
		return nil, err
	}
	idx, err := r.Schema().RealIndexes(outSch.RealNames())
	if err != nil {
		return nil, err
	}
	out := Empty(outSch)
	for _, t := range r.Tuples() {
		out.add(t.Project(idx))
	}
	return out, nil
}

// Select computes σ_F(r) (Table 3b): the schema is unchanged and F may only
// reference real attributes.
func Select(r *XRelation, f Formula) (*XRelation, error) {
	if err := f.Validate(r.Schema()); err != nil {
		return nil, err
	}
	out := Empty(r.Schema())
	for _, t := range r.Tuples() {
		if f.Eval(r.Schema(), t) {
			out.add(t)
		}
	}
	return out, nil
}

// Rename computes ρ_{A→B}(r) (Table 3c): tuples are unchanged (the real
// layout keeps its coordinates), only the schema is relabeled and binding
// patterns re-checked.
func Rename(r *XRelation, oldName, newName string) (*XRelation, error) {
	outSch, err := schema.RenameSchema(r.Schema(), oldName, newName)
	if err != nil {
		return nil, err
	}
	out := Empty(outSch)
	for _, t := range r.Tuples() {
		out.add(t)
	}
	return out, nil
}

// joinPlan is the precomputed physical layout of a natural join: the output
// schema, each side's projection onto the shared real join attributes, and
// the per-coordinate source of the result tuple. Deriving it once lets the
// one-shot operator and the delta operator share identical tuple assembly.
type joinPlan struct {
	out        *schema.Extended
	idx1, idx2 []int
	steps      []joinStep
}

type joinStep struct {
	fromR1 bool
	pos    int
}

func buildJoinPlan(s1, s2 *schema.Extended) (*joinPlan, error) {
	out, err := schema.JoinSchema(s1, s2)
	if err != nil {
		return nil, err
	}
	joinAttrs := schema.SharedRealJoinAttrs(s1, s2)
	idx1, err := s1.RealIndexes(joinAttrs)
	if err != nil {
		return nil, err
	}
	idx2, err := s2.RealIndexes(joinAttrs)
	if err != nil {
		return nil, err
	}
	// Result tuple construction: for every real attribute of the output
	// schema take the value from r1 when it is real there, else from r2.
	steps := make([]joinStep, 0, out.RealArity())
	for _, name := range out.RealNames() {
		if s1.IsReal(name) {
			steps = append(steps, joinStep{true, s1.RealIndex(name)})
		} else {
			steps = append(steps, joinStep{false, s2.RealIndex(name)})
		}
	}
	return &joinPlan{out: out, idx1: idx1, idx2: idx2, steps: steps}, nil
}

func (p *joinPlan) combine(t1, t2 value.Tuple) value.Tuple {
	nt := make(value.Tuple, len(p.steps))
	for i, s := range p.steps {
		if s.fromR1 {
			nt[i] = t1[s.pos]
		} else {
			nt[i] = t2[s.pos]
		}
	}
	return nt
}

// NaturalJoin computes r1 ⋈ r2 (Table 3d). Only attributes real in BOTH
// operands imply a join predicate; when none exists the tuple-level result
// is a Cartesian product. Attributes real in one operand and virtual in the
// other are implicitly realized (their value comes from the real side).
func NaturalJoin(r1, r2 *XRelation) (*XRelation, error) {
	plan, err := buildJoinPlan(r1.Schema(), r2.Schema())
	if err != nil {
		return nil, err
	}

	// Hash join on the shared real attributes.
	buckets := make(map[string][]value.Tuple, r2.Len())
	for _, t2 := range r2.Tuples() {
		k := t2.Project(plan.idx2).Key()
		buckets[k] = append(buckets[k], t2)
	}
	out := Empty(plan.out)
	for _, t1 := range r1.Tuples() {
		k := t1.Project(plan.idx1).Key()
		for _, t2 := range buckets[k] {
			out.add(plan.combine(t1, t2))
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Realization operators (Section 3.1.3, Table 3 e–f).

// assignConstGen derives the α_{attr:=v} output schema and the per-tuple
// generator for the realized coordinate, shared by the one-shot and delta
// operators.
func assignConstGen(in *schema.Extended, attr string, v value.Value) (*schema.Extended, func(value.Tuple) value.Value, error) {
	outSch, err := schema.AssignSchema(in, attr, "")
	if err != nil {
		return nil, nil, err
	}
	want, _ := outSch.TypeOf(attr)
	cv, ok := value.Coerce(v, want)
	if !ok {
		return nil, nil, fmt.Errorf("algebra: assignment %s := %s: constant type %s does not match attribute type %s",
			attr, v, v.Kind(), want)
	}
	return outSch, func(value.Tuple) value.Value { return cv }, nil
}

// assignAttrGen derives the α_{attr:=src} output schema and generator.
func assignAttrGen(in *schema.Extended, attr, src string) (*schema.Extended, func(value.Tuple) value.Value, error) {
	outSch, err := schema.AssignSchema(in, attr, src)
	if err != nil {
		return nil, nil, err
	}
	want, _ := outSch.TypeOf(attr)
	srcIdx := in.RealIndex(src)
	return outSch, func(t value.Tuple) value.Value {
		v, ok := value.Coerce(t[srcIdx], want)
		if !ok {
			return value.NewNull() // unreachable: AssignSchema checked types
		}
		return v
	}, nil
}

// AssignConst computes α_{A:=a}(r) (Table 3e, constant form): the virtual
// attribute A becomes real and every tuple gains the constant a at A's
// coordinate. The constant must have (or coerce to) A's declared type.
func AssignConst(r *XRelation, attr string, v value.Value) (*XRelation, error) {
	outSch, gen, err := assignConstGen(r.Schema(), attr, v)
	if err != nil {
		return nil, err
	}
	return realize(r, outSch, gen), nil
}

// AssignAttr computes α_{A:=B}(r) (Table 3e, attribute form): A becomes
// real with, per tuple, the value of the real attribute B.
func AssignAttr(r *XRelation, attr, src string) (*XRelation, error) {
	outSch, gen, err := assignAttrGen(r.Schema(), attr, src)
	if err != nil {
		return nil, err
	}
	return realize(r, outSch, gen), nil
}

// realize rebuilds tuples for a schema where exactly the named attributes
// changed from virtual to real, pulling new coordinates from gen.
func realize(r *XRelation, outSch *schema.Extended, gen func(value.Tuple) value.Value) *XRelation {
	plan := buildRealizePlan(r.Schema(), outSch)
	out := Empty(outSch)
	for _, t := range r.Tuples() {
		out.add(realizeTuple(t, plan, gen))
	}
	return out
}

// realizeTuple assembles one output tuple from an input tuple and the
// realize plan, generating newly realized coordinates with gen.
func realizeTuple(t value.Tuple, plan []realizeStep, gen func(value.Tuple) value.Value) value.Tuple {
	nt := make(value.Tuple, len(plan))
	for i, p := range plan {
		if p.old >= 0 {
			nt[i] = t[p.old]
		} else {
			nt[i] = gen(t)
		}
	}
	return nt
}

type realizeStep struct {
	name string
	old  int // coordinate in the input tuple, or -1 for newly realized
}

func buildRealizePlan(in, out *schema.Extended) []realizeStep {
	plan := make([]realizeStep, 0, out.RealArity())
	for _, name := range out.RealNames() {
		plan = append(plan, realizeStep{name: name, old: in.RealIndex(name)})
	}
	return plan
}

// InvokePlan is the precomputed physical layout of an invocation operator
// β_bp over a fixed operand schema: the output schema, the coordinates of
// the service reference and the prototype's input attributes, and the
// assembly plan mapping (input tuple, prototype output row) pairs to output
// tuples. Deriving it once per plan lets the one-shot operator and the
// continuous executor's delta operator share identical tuple assembly.
type InvokePlan struct {
	OutSch *schema.Extended
	SvcIdx int   // coordinate of bp's service attribute in the input tuple
	InIdx  []int // coordinates of the prototype's input attributes
	plan   []realizeStep
	outPos []int // per plan step: position in the prototype output row, or -1
}

// NewInvokePlan derives the invocation layout for bp over the operand
// schema.
func NewInvokePlan(in *schema.Extended, bp schema.BindingPattern) (*InvokePlan, error) {
	outSch, err := schema.InvokeSchema(in, bp)
	if err != nil {
		return nil, err
	}
	inIdx, err := in.RealIndexes(bp.Proto.Input.Names())
	if err != nil {
		return nil, err
	}
	outNames := bp.Proto.Output
	plan := buildRealizePlan(in, outSch)
	// Positions of realized attributes within the prototype output tuple.
	outPos := make([]int, len(plan))
	for i, p := range plan {
		if p.old >= 0 {
			outPos[i] = -1
		} else {
			outPos[i] = outNames.Index(p.name)
		}
	}
	return &InvokePlan{
		OutSch: outSch,
		SvcIdx: in.RealIndex(bp.ServiceAttr),
		InIdx:  inIdx,
		plan:   plan,
		outPos: outPos,
	}, nil
}

// Realize replicates the input tuple once per prototype output row, each
// copy gaining the realized output attributes.
func (p *InvokePlan) Realize(in value.Tuple, rows []value.Tuple) []value.Tuple {
	if len(rows) == 0 {
		return nil
	}
	out := make([]value.Tuple, len(rows))
	for r, row := range rows {
		nt := make(value.Tuple, len(p.plan))
		for i, step := range p.plan {
			if step.old >= 0 {
				nt[i] = in[step.old]
			} else {
				nt[i] = row[p.outPos[i]]
			}
		}
		out[r] = nt
	}
	return out
}

// Invoke computes β_bp(r) (Table 3f): every input tuple triggers one
// invocation of bp's prototype on the service its service attribute
// references; the input tuple is replicated once per output tuple, gaining
// the realized output attributes. Tuples whose service reference is NULL
// contribute no output (there is no service to call). The work list goes
// to the Invoker in one call (Section 3.2: order has no impact at a given
// instant); the first error in input order aborts the operator — error
// policy (skip/fail) belongs to the Invoker, which may substitute rows.
func Invoke(r *XRelation, bp schema.BindingPattern, inv Invoker) (*XRelation, error) {
	ip, err := NewInvokePlan(r.Schema(), bp)
	if err != nil {
		return nil, err
	}
	jobs := make([]InvokeJob, 0, r.Len())
	for _, t := range r.Tuples() {
		refVal := t[ip.SvcIdx]
		if refVal.IsNull() {
			continue
		}
		ref, ok := refVal.AsString()
		if !ok {
			return nil, fmt.Errorf("algebra: invoke %s: service attribute %q holds non-reference value %s",
				bp.ID(), bp.ServiceAttr, refVal)
		}
		jobs = append(jobs, InvokeJob{Ref: ref, Input: t.Project(ip.InIdx)})
	}
	results := inv.InvokeAll(bp, jobs)
	for _, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("algebra: invoke %s: %w", bp.ID(), res.Err)
		}
	}
	out := Empty(ip.OutSch)
	i := 0 // results[i] belongs to the i-th tuple with a service reference
	for _, t := range r.Tuples() {
		if t[ip.SvcIdx].IsNull() {
			continue
		}
		for _, nt := range ip.Realize(t, results[i].Rows) {
			out.add(nt)
		}
		i++
	}
	return out, nil
}
