package algebra

import (
	"fmt"
	"math"
	"sort"

	"serena/internal/schema"
	"serena/internal/value"
)

// This file implements grouping/aggregation as an EXTENSION to the Serena
// algebra. The paper does not define aggregation operators, but its
// motivating example (Section 1.2) poses "compute a mean temperature for a
// given location" queries; this operator provides them in the obvious
// relational way. The result is a plain relation: grouping keys plus
// aggregate columns, all real, with no binding patterns (aggregation
// destroys the per-tuple service references binding patterns rely on).

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Supported aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Mean
	Min
	Max
)

var aggNames = map[AggFunc]string{
	Count: "count", Sum: "sum", Mean: "mean", Min: "min", Max: "max",
}

// String returns the SAL spelling.
func (f AggFunc) String() string { return aggNames[f] }

// AggFuncFromString parses an aggregate function name.
func AggFuncFromString(s string) (AggFunc, bool) {
	for f, n := range aggNames {
		if n == s {
			return f, true
		}
	}
	return 0, false
}

// AggSpec is one aggregate column: Func applied to Attr, exposed under As.
// Count ignores Attr (use "*" or empty).
type AggSpec struct {
	Func AggFunc
	Attr string
	As   string
}

// String renders "func(attr) as name".
func (a AggSpec) String() string {
	attr := a.Attr
	if a.Func == Count && attr == "" {
		attr = "*"
	}
	return fmt.Sprintf("%s(%s) as %s", a.Func, attr, a.As)
}

// AggregateSchema derives the result schema: groupBy attributes (which
// must be real) followed by one column per aggregate (INTEGER for count,
// REAL for sum/mean/min/max over numerics; min/max keep the input type for
// strings).
func AggregateSchema(r *schema.Extended, groupBy []string, aggs []AggSpec) (*schema.Extended, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("algebra: aggregation needs at least one aggregate")
	}
	var attrs []schema.ExtAttr
	seen := map[string]bool{}
	for _, g := range groupBy {
		if !r.Has(g) {
			return nil, fmt.Errorf("algebra: unknown grouping attribute %q", g)
		}
		if !r.IsReal(g) {
			return nil, fmt.Errorf("algebra: grouping attribute %q must be real (virtual attributes have no value)", g)
		}
		if seen[g] {
			return nil, fmt.Errorf("algebra: duplicate grouping attribute %q", g)
		}
		seen[g] = true
		t, _ := r.TypeOf(g)
		attrs = append(attrs, schema.ExtAttr{Attribute: schema.Attribute{Name: g, Type: t}})
	}
	for _, a := range aggs {
		if a.As == "" {
			return nil, fmt.Errorf("algebra: aggregate %s needs an output name", a)
		}
		if seen[a.As] {
			return nil, fmt.Errorf("algebra: duplicate output attribute %q", a.As)
		}
		seen[a.As] = true
		outType := value.Real
		switch a.Func {
		case Count:
			outType = value.Int
		case Sum, Mean:
			if err := requireNumeric(r, a); err != nil {
				return nil, err
			}
		case Min, Max:
			t, err := inputType(r, a)
			if err != nil {
				return nil, err
			}
			if !t.Numeric() {
				if t != value.String && t != value.Service {
					return nil, fmt.Errorf("algebra: %s needs numeric or textual input, %q is %s", a.Func, a.Attr, t)
				}
				outType = t
			}
		}
		attrs = append(attrs, schema.ExtAttr{Attribute: schema.Attribute{Name: a.As, Type: outType}})
	}
	return schema.NewExtended("", attrs, nil)
}

func inputType(r *schema.Extended, a AggSpec) (value.Kind, error) {
	if !r.Has(a.Attr) {
		return 0, fmt.Errorf("algebra: unknown aggregate input %q", a.Attr)
	}
	if !r.IsReal(a.Attr) {
		return 0, fmt.Errorf("algebra: aggregate input %q must be real", a.Attr)
	}
	t, _ := r.TypeOf(a.Attr)
	return t, nil
}

func requireNumeric(r *schema.Extended, a AggSpec) error {
	t, err := inputType(r, a)
	if err != nil {
		return err
	}
	if !t.Numeric() {
		return fmt.Errorf("algebra: %s needs a numeric input, %q is %s", a.Func, a.Attr, t)
	}
	return nil
}

// Aggregate groups r by the given real attributes and computes the
// aggregates per group. NULL inputs are skipped (count(*) still counts the
// tuple); groups whose aggregate has no non-NULL input yield NULL.
func Aggregate(r *XRelation, groupBy []string, aggs []AggSpec) (*XRelation, error) {
	outSch, err := AggregateSchema(r.Schema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	keyIdx, err := r.Schema().RealIndexes(groupBy)
	if err != nil {
		return nil, err
	}
	aggIdx, err := resolveAggIdx(r.Schema(), aggs)
	if err != nil {
		return nil, err
	}

	type group struct {
		key     value.Tuple
		members byKey
	}
	groups := map[string]*group{}
	var order []string
	for _, t := range r.Tuples() {
		key := t.Project(keyIdx)
		k := key.Key()
		g, ok := groups[k]
		if !ok {
			g = &group{key: key}
			groups[k] = g
			order = append(order, k)
		}
		g.members.tuples = append(g.members.tuples, t)
		g.members.keys = append(g.members.keys, t.Key())
	}
	sort.Strings(order)
	out := Empty(outSch)
	for _, k := range order {
		g := groups[k]
		// Accumulate in key-sorted member order: floating-point sums depend
		// on accumulation order, and the delta evaluator re-accumulates each
		// dirty group in this order, so both evaluators must agree on it for
		// bit-identical results (Definition 9 equivalence).
		sort.Sort(g.members)
		out.add(accumulateGroup(g.key, g.members.tuples, aggs, aggIdx))
	}
	return out, nil
}

// byKey sorts tuples by their keys, each computed once.
type byKey struct {
	tuples []value.Tuple
	keys   []string
}

func (s byKey) Len() int           { return len(s.tuples) }
func (s byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s byKey) Swap(i, j int) {
	s.tuples[i], s.tuples[j] = s.tuples[j], s.tuples[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// resolveAggIdx maps each aggregate's input attribute to its real
// coordinate (-1 for count(*), which reads no attribute).
func resolveAggIdx(sch *schema.Extended, aggs []AggSpec) ([]int, error) {
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Func == Count && a.Attr == "" {
			aggIdx[i] = -1
			continue
		}
		j := sch.RealIndex(a.Attr)
		if j < 0 {
			return nil, fmt.Errorf("algebra: unknown aggregate input %q", a.Attr)
		}
		aggIdx[i] = j
	}
	return aggIdx, nil
}

// accumulateGroup folds one group's member tuples (in the caller-chosen
// order — both evaluators use key-sorted order) into its result row.
func accumulateGroup(key value.Tuple, members []value.Tuple, aggs []AggSpec, aggIdx []int) value.Tuple {
	g := &aggAcc{
		key:     key,
		nonNull: make([]int64, len(aggs)),
		sum:     make([]float64, len(aggs)),
		min:     make([]value.Value, len(aggs)),
		max:     make([]value.Value, len(aggs)),
	}
	for _, t := range members {
		g.count++
		for i := range aggs {
			if aggIdx[i] < 0 {
				continue
			}
			v := t[aggIdx[i]]
			if v.IsNull() {
				continue
			}
			g.nonNull[i]++
			if f, ok := v.AsFloat(); ok {
				g.sum[i] += f
			}
			if g.nonNull[i] == 1 {
				g.min[i], g.max[i] = v, v
			} else {
				if value.Less(v, g.min[i]) {
					g.min[i] = v
				}
				if value.Less(g.max[i], v) {
					g.max[i] = v
				}
			}
		}
	}
	row := make(value.Tuple, 0, len(key)+len(aggs))
	row = append(row, g.key...)
	for i, a := range aggs {
		row = append(row, aggValue(a, g, i))
	}
	return row
}

// aggAcc accumulates one group's state.
type aggAcc struct {
	key     value.Tuple
	count   int64
	nonNull []int64
	sum     []float64
	min     []value.Value
	max     []value.Value
}

func aggValue(a AggSpec, g *aggAcc, i int) value.Value {
	switch a.Func {
	case Count:
		if a.Attr == "" {
			return value.NewInt(g.count)
		}
		return value.NewInt(g.nonNull[i])
	case Sum:
		if g.nonNull[i] == 0 {
			return value.NewNull()
		}
		return value.NewReal(g.sum[i])
	case Mean:
		if g.nonNull[i] == 0 {
			return value.NewNull()
		}
		return value.NewReal(round6(g.sum[i] / float64(g.nonNull[i])))
	case Min:
		if g.nonNull[i] == 0 {
			return value.NewNull()
		}
		return coerceAgg(g.min[i])
	case Max:
		if g.nonNull[i] == 0 {
			return value.NewNull()
		}
		return coerceAgg(g.max[i])
	}
	return value.NewNull()
}

// coerceAgg lifts numeric min/max to REAL (the declared output type);
// textual values pass through.
func coerceAgg(v value.Value) value.Value {
	if f, ok := v.AsFloat(); ok && v.Kind() != value.Bool {
		return value.NewReal(f)
	}
	return v
}

func round6(f float64) float64 { return math.Round(f*1e6) / 1e6 }
