package algebra_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"serena/internal/algebra"
	"serena/internal/paperenv"
	"serena/internal/schema"
	"serena/internal/value"
)

// genRelation is a quick.Generator producing random X-Relations over the
// sensors schema (service ref, location, virtual temperature).
type genRelation struct{ rel *algebra.XRelation }

// Generate implements quick.Generator.
func (genRelation) Generate(rng *rand.Rand, size int) reflect.Value {
	locations := []string{"office", "corridor", "roof", "lab", "hall"}
	refs := []string{"s01", "s02", "s03", "s04", "s05", "s06", "s07", "s08"}
	n := rng.Intn(size%16 + 4)
	rows := make([]value.Tuple, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, value.Tuple{
			value.NewService(refs[rng.Intn(len(refs))]),
			value.NewString(locations[rng.Intn(len(locations))]),
		})
	}
	return reflect.ValueOf(genRelation{algebra.MustNew(paperenv.SensorsSchema(), rows)})
}

var _ quick.Generator = genRelation{}

// TestQuickPartitionInvariant: for every operator output, realSchema and
// virtualSchema partition schema(R) (Definition 2), and tuples have exactly
// realArity coordinates (Definition 3).
func TestQuickPartitionInvariant(t *testing.T) {
	check := func(r *algebra.XRelation) bool {
		sch := r.Schema()
		nReal := 0
		for _, a := range sch.Attrs() {
			if sch.IsReal(a.Name) == a.Virtual || sch.IsVirtual(a.Name) != a.Virtual {
				return false
			}
			if !a.Virtual {
				nReal++
			}
		}
		if nReal != len(sch.RealNames()) {
			return false
		}
		for _, tu := range r.Tuples() {
			if len(tu) != sch.RealArity() {
				return false
			}
		}
		return true
	}
	f := func(g genRelation) bool {
		r := g.rel
		if !check(r) {
			return false
		}
		p, err := algebra.Project(r, []string{"sensor", "temperature"})
		if err != nil || !check(p) {
			return false
		}
		s, err := algebra.Select(r, algebra.Compare(algebra.Attr("location"), algebra.Eq, algebra.Const(value.NewString("office"))))
		if err != nil || !check(s) {
			return false
		}
		a, err := algebra.AssignConst(r, "temperature", value.NewReal(20))
		if err != nil || !check(a) {
			return false
		}
		rn, err := algebra.Rename(r, "location", "place")
		if err != nil || !check(rn) {
			return false
		}
		j, err := algebra.NaturalJoin(r, paperenv.Surveillance())
		if err != nil || !check(j) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSetOperatorLaws: union/intersect/diff satisfy the usual set
// algebra identities on arbitrary relation pairs over the same schema.
func TestQuickSetOperatorLaws(t *testing.T) {
	f := func(ga, gb genRelation) bool {
		a, b := ga.rel, gb.rel
		ab, err1 := algebra.Union(a, b)
		ba, err2 := algebra.Union(b, a)
		if err1 != nil || err2 != nil || !ab.EqualContents(ba) {
			return false // commutativity
		}
		ia, err1 := algebra.Intersect(a, b)
		ib, err2 := algebra.Intersect(b, a)
		if err1 != nil || err2 != nil || !ia.EqualContents(ib) {
			return false
		}
		// a − b ⊆ a, disjoint from b; (a−b) ∪ (a∩b) = a.
		d, err := algebra.Diff(a, b)
		if err != nil {
			return false
		}
		for _, tu := range d.Tuples() {
			if !a.Contains(tu) || b.Contains(tu) {
				return false
			}
		}
		rebuilt, err := algebra.Union(d, ia)
		if err != nil || !rebuilt.EqualContents(a) {
			return false
		}
		// Idempotence.
		aa, _ := algebra.Union(a, a)
		return aa.EqualContents(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickSelectionLaws: σ_F∧G = σ_F(σ_G) = σ_G(σ_F) ⊆ r, and selections
// commute with projection that keeps the formula's attributes.
func TestQuickSelectionLaws(t *testing.T) {
	fOffice := algebra.Compare(algebra.Attr("location"), algebra.Eq, algebra.Const(value.NewString("office")))
	fRef := algebra.Compare(algebra.Attr("sensor"), algebra.Ne, algebra.Const(value.NewService("s01")))
	f := func(g genRelation) bool {
		r := g.rel
		fg, err := algebra.Select(r, algebra.NewAnd(fOffice, fRef))
		if err != nil {
			return false
		}
		gf1, _ := algebra.Select(r, fRef)
		gf1, _ = algebra.Select(gf1, fOffice)
		gf2, _ := algebra.Select(r, fOffice)
		gf2, _ = algebra.Select(gf2, fRef)
		if !fg.EqualContents(gf1) || !fg.EqualContents(gf2) {
			return false
		}
		for _, tu := range fg.Tuples() {
			if !r.Contains(tu) {
				return false
			}
		}
		// σ then π vs π then σ (projection keeps location and sensor).
		pa, err := algebra.Project(fg, []string{"sensor", "location"})
		if err != nil {
			return false
		}
		pr, err := algebra.Project(r, []string{"sensor", "location"})
		if err != nil {
			return false
		}
		pb, err := algebra.Select(pr, algebra.NewAnd(fOffice, fRef))
		if err != nil {
			return false
		}
		return pa.EqualContents(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinLaws: natural join is commutative on tuple contents (modulo
// attribute order) and r ⋈ r = r.
func TestQuickJoinLaws(t *testing.T) {
	f := func(g genRelation) bool {
		r := g.rel
		self, err := algebra.NaturalJoin(r, r)
		if err != nil || !self.EqualContents(r) {
			return false
		}
		ab, err1 := algebra.NaturalJoin(r, paperenv.Surveillance())
		ba, err2 := algebra.NaturalJoin(paperenv.Surveillance(), r)
		if err1 != nil || err2 != nil {
			return false
		}
		if ab.Len() != ba.Len() {
			return false
		}
		// Same contents modulo attribute order (projection preserves the
		// source schema's ordering, so compare by named coordinates).
		key := func(r *algebra.XRelation, tu value.Tuple) string {
			idx, err := r.Schema().RealIndexes([]string{"sensor", "location", "name"})
			if err != nil {
				return "?"
			}
			return tu.Project(idx).Key()
		}
		seen := map[string]bool{}
		for _, tu := range ab.Tuples() {
			seen[key(ab, tu)] = true
		}
		for _, tu := range ba.Tuples() {
			if !seen[key(ba, tu)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickRenameRoundTrip: ρ_{B→A}(ρ_{A→B}(r)) = r including schema.
func TestQuickRenameRoundTrip(t *testing.T) {
	f := func(g genRelation) bool {
		r := g.rel
		fwd, err := algebra.Rename(r, "location", "place")
		if err != nil {
			return false
		}
		back, err := algebra.Rename(fwd, "place", "location")
		if err != nil {
			return false
		}
		return back.EqualContents(r) && back.Schema().Equal(r.Schema())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickAssignThenProjectDropRestores: assigning a virtual attribute and
// then projecting it away yields the original real contents.
func TestQuickAssignThenProjectDrop(t *testing.T) {
	f := func(g genRelation) bool {
		r := g.rel
		a, err := algebra.AssignConst(r, "temperature", value.NewReal(21))
		if err != nil {
			return false
		}
		back, err := algebra.Project(a, []string{"sensor", "location"})
		if err != nil {
			return false
		}
		orig, err := algebra.Project(r, []string{"sensor", "location"})
		if err != nil {
			return false
		}
		return back.EqualContents(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickAggregateCountConsistency: the counts of a grouped count(*)
// always sum to the relation's cardinality.
func TestQuickAggregateCountConsistency(t *testing.T) {
	f := func(g genRelation) bool {
		r := g.rel
		agg, err := algebra.Aggregate(r, []string{"location"},
			[]algebra.AggSpec{{Func: algebra.Count, As: "n"}})
		if err != nil {
			return false
		}
		var total int64
		ni := agg.Schema().RealIndex("n")
		for _, tu := range agg.Tuples() {
			total += tu[ni].Int()
		}
		return total == int64(r.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickInvokeFanout: with a one-row-per-invocation stub, β preserves
// cardinality and realizes exactly the output schema.
func TestQuickInvokeFanout(t *testing.T) {
	stub := algebra.InvokerFunc(func(bp schema.BindingPattern, ref string, in value.Tuple) ([]value.Tuple, error) {
		return []value.Tuple{{value.NewReal(float64(len(ref)))}}, nil
	})
	f := func(g genRelation) bool {
		r := g.rel
		bp, err := r.Schema().FindBP("getTemperature", "")
		if err != nil {
			return false
		}
		out, err := algebra.Invoke(r, bp, stub)
		if err != nil {
			return false
		}
		// Distinct (sensor, location) pairs stay distinct and gain one
		// temperature each.
		return out.Len() == r.Len() && out.Schema().IsReal("temperature")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
