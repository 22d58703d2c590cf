package query

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"

	"serena/internal/algebra"
)

// OpStats is one operator's cumulative evaluation counters: what EXPLAIN
// ANALYZE reports per plan node and the continuous executor's DeltaReport
// per delta operator.
type OpStats struct {
	Calls   int64
	RowsIn  int64 // rows consumed from the operands (0 for leaves)
	RowsOut int64
	Wall    time.Duration // subtree wall time
	Self    time.Duration // Wall minus the operands' Wall
	Err     error         // last evaluation error, if any
}

// Profile records, per plan node, how many times Context.Eval ran it, how
// many rows it produced and how long its subtree took. The plan itself is
// not touched, so the profiled tree may keep running elsewhere.
//
// A Profile is NOT safe for concurrent Eval calls (a plan is walked
// sequentially; only the invocations inside a β node fan out, and those are
// counted by the service layer, not here). A node shared by two positions of
// a plan accumulates both positions' evaluations.
type Profile struct{ ops map[Node]*OpStats }

// NewProfile returns an empty profile to install as Context.Profile.
func NewProfile() *Profile { return &Profile{ops: map[Node]*OpStats{}} }

func (p *Profile) record(n Node, r *algebra.XRelation, err error, wall time.Duration) {
	st := p.ops[n]
	if st == nil {
		st = &OpStats{}
		p.ops[n] = st
	}
	st.Calls++
	st.Wall += wall
	if err != nil {
		st.Err = err
		return
	}
	st.RowsOut += int64(r.Len())
}

// Stats returns the node's counters (zero if it never evaluated). RowsIn is
// the sum of the operands' outputs and Self the subtree time not spent in
// the operands.
func (p *Profile) Stats(n Node) OpStats {
	var st OpStats
	if rec := p.ops[n]; rec != nil {
		st = *rec
	}
	st.Self = st.Wall
	for _, k := range n.Children() {
		if rec := p.ops[k]; rec != nil {
			st.RowsIn += rec.RowsOut
			st.Self -= rec.Wall
		}
	}
	if st.Self < 0 {
		st.Self = 0
	}
	return st
}

// Render formats the profile of the plan rooted at n as an annotated plan
// (see RenderPlan), timings included.
func (p *Profile) Render(n Node) string {
	var lines []PlanLine
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		lines = append(lines, PlanLine{Op: n, Depth: depth, OpStats: p.Stats(n)})
		for _, k := range n.Children() {
			walk(k, depth+1)
		}
	}
	walk(n, 0)
	return RenderPlan(lines, true)
}

// opLabel renders just the operator head for plan lines: the node's SAL
// form, which is always head(operand, …), without the operand list.
func opLabel(n Node) string {
	kids := n.Children()
	if len(kids) == 0 {
		return n.String()
	}
	operands := make([]string, len(kids))
	for i, k := range kids {
		operands[i] = k.String()
	}
	return strings.TrimSuffix(n.String(), "("+strings.Join(operands, ", ")+")")
}

// PlanLine is one row of an annotated plan: an operator, its depth in the
// tree, and its counters.
type PlanLine struct {
	Op    Node
	Depth int
	OpStats
}

// RenderPlan formats an annotated plan, one operator per line in the order
// given, operands indented under their parent and the counters aligned in
// one column; timed adds the wall-clock columns:
//
//	select[location = "office"]   calls=1 rows_in=4 rows_out=2 time=1.2ms self=3µs
//	  invoke[getTemperature]      calls=1 rows_in=4 rows_out=4 time=1.2ms self=1.2ms
//	    sensors                   calls=1 rows_in=0 rows_out=4 time=2µs self=2µs
func RenderPlan(lines []PlanLine, timed bool) string {
	labels := make([]string, len(lines))
	width := 0
	for i, l := range lines {
		labels[i] = strings.Repeat("  ", l.Depth) + opLabel(l.Op)
		if w := utf8.RuneCountInString(labels[i]); w > width {
			width = w
		}
	}
	var b strings.Builder
	for i, l := range lines {
		fmt.Fprintf(&b, "%-*s  calls=%d rows_in=%d rows_out=%d", width, labels[i], l.Calls, l.RowsIn, l.RowsOut)
		if timed {
			fmt.Fprintf(&b, " time=%s self=%s", round(l.Wall), round(l.Self))
		}
		if l.Err != nil {
			fmt.Fprintf(&b, " error=%v", l.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// round trims durations to microsecond resolution for readability (0 stays
// 0s so plans of unevaluated operators remain unambiguous).
func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
