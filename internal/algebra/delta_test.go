package algebra_test

import (
	"math/rand"
	"testing"

	"serena/internal/algebra"
	"serena/internal/paperenv"
	"serena/internal/schema"
	"serena/internal/value"
)

// The tests in this file drive each delta operator and its one-shot
// counterpart in lockstep over random event sequences: per step a random
// set-level delta mutates the operand(s), the delta operator's output is
// folded into a maintained output set, and that set must equal the one-shot
// operator applied to the full current operand(s). Fixed seeds; the failing
// seed and step are printed on mismatch.

const (
	deltaSeeds = 8
	deltaSteps = 60
)

// world is one operand's evolving set of tuples plus its schema.
type world struct {
	sch *schema.Extended
	cur map[string]value.Tuple
	rng *rand.Rand
	gen func(*rand.Rand) value.Tuple
}

func newWorld(sch *schema.Extended, rng *rand.Rand, gen func(*rand.Rand) value.Tuple) *world {
	return &world{sch: sch, cur: map[string]value.Tuple{}, rng: rng, gen: gen}
}

// step produces a random normalized delta (deletes of present tuples,
// inserts of absent ones) and applies it to the world.
func (w *world) step() algebra.Delta {
	var d algebra.Delta
	// Deletes: each present tuple leaves with ~20% probability.
	gone := map[string]bool{}
	for k, t := range w.cur {
		if w.rng.Intn(5) == 0 {
			d.Del = append(d.Del, t)
			delete(w.cur, k)
			gone[k] = true
		}
	}
	// Inserts: a few fresh tuples. Tuples already present are skipped, and
	// so are tuples deleted this same step — deltas are NORMALIZED (no
	// tuple in both halves), which is the operators' input contract.
	for i := w.rng.Intn(4); i > 0; i-- {
		t := w.gen(w.rng)
		k := t.Key()
		if _, ok := w.cur[k]; ok || gone[k] {
			continue
		}
		w.cur[k] = t
		d.Ins = append(d.Ins, t)
	}
	return d
}

func (w *world) relation() *algebra.XRelation {
	return algebra.FromKeyed(w.sch, w.cur)
}

// fold applies an operator's output delta to the maintained output set,
// failing on underflow (delete of an absent tuple) or duplicate insert —
// both would mean the operator emitted a non-set-consistent delta.
func fold(t *testing.T, out map[string]value.Tuple, d algebra.Delta, seed int64, step int) {
	t.Helper()
	for _, tu := range d.Del {
		if _, ok := out[tu.Key()]; !ok {
			t.Fatalf("seed %d step %d: delta deletes absent output tuple %s", seed, step, tu)
		}
		delete(out, tu.Key())
	}
	for _, tu := range d.Ins {
		if _, ok := out[tu.Key()]; ok {
			t.Fatalf("seed %d step %d: delta re-inserts present output tuple %s", seed, step, tu)
		}
		out[tu.Key()] = tu
	}
}

func requireEqual(t *testing.T, out map[string]value.Tuple, want *algebra.XRelation, seed int64, step int) {
	t.Helper()
	got := algebra.FromKeyed(want.Schema(), out)
	if !got.EqualContents(want) {
		t.Fatalf("seed %d step %d: delta-maintained output diverged\ngot:\n%s\nwant:\n%s",
			seed, step, got.Table(), want.Table())
	}
}

// genReading generates temperatures-stream tuples over a small domain so
// projections collapse and groups churn.
func genReading(rng *rand.Rand) value.Tuple {
	sensors := []string{"s01", "s02", "s03", "s04", "s05"}
	locations := []string{"office", "corridor", "roof"}
	return value.Tuple{
		value.NewService(sensors[rng.Intn(len(sensors))]),
		value.NewString(locations[rng.Intn(len(locations))]),
		value.NewReal(float64(rng.Intn(40)) / 3), // awkward floats to stress bit-identity
	}
}

// genStaff generates surveillance tuples (name, location) for the join's
// right side.
func genStaff(rng *rand.Rand) value.Tuple {
	names := []string{"Carla", "Nicolas", "Francois", "Rachida"}
	locations := []string{"office", "corridor", "roof"}
	return value.Tuple{
		value.NewString(names[rng.Intn(len(names))]),
		value.NewString(locations[rng.Intn(len(locations))]),
	}
}

// runUnary drives a single-operand delta operator against its one-shot
// reference over random histories.
func runUnary(t *testing.T, mk func() interface {
	Apply(algebra.Delta) (algebra.Delta, error)
}, oneShot func(*algebra.XRelation) (*algebra.XRelation, error)) {
	t.Helper()
	for seed := int64(0); seed < deltaSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		op := mk()
		w := newWorld(paperenv.TemperaturesSchema(), rng, genReading)
		out := map[string]value.Tuple{}
		for step := 0; step < deltaSteps; step++ {
			d, err := op.Apply(w.step())
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			fold(t, out, d, seed, step)
			want, err := oneShot(w.relation())
			if err != nil {
				t.Fatalf("seed %d step %d: one-shot: %v", seed, step, err)
			}
			requireEqual(t, out, want, seed, step)
		}
	}
}

func TestDeltaSelectMatchesOneShot(t *testing.T) {
	f := algebra.Compare(algebra.Attr("temperature"), algebra.Gt, algebra.Const(value.NewReal(6)))
	runUnary(t, func() interface {
		Apply(algebra.Delta) (algebra.Delta, error)
	} {
		op, err := algebra.NewDeltaSelect(paperenv.TemperaturesSchema(), f)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}, func(r *algebra.XRelation) (*algebra.XRelation, error) {
		return algebra.Select(r, f)
	})
}

func TestDeltaProjectMatchesOneShot(t *testing.T) {
	// Projecting onto location collapses many readings per output tuple —
	// the support-counting case.
	runUnary(t, func() interface {
		Apply(algebra.Delta) (algebra.Delta, error)
	} {
		op, err := algebra.NewDeltaProject(paperenv.TemperaturesSchema(), []string{"location"})
		if err != nil {
			t.Fatal(err)
		}
		return op
	}, func(r *algebra.XRelation) (*algebra.XRelation, error) {
		return algebra.Project(r, []string{"location"})
	})
}

func TestDeltaRenameMatchesOneShot(t *testing.T) {
	runUnary(t, func() interface {
		Apply(algebra.Delta) (algebra.Delta, error)
	} {
		op, err := algebra.NewDeltaRename(paperenv.TemperaturesSchema(), "location", "place")
		if err != nil {
			t.Fatal(err)
		}
		return op
	}, func(r *algebra.XRelation) (*algebra.XRelation, error) {
		return algebra.Rename(r, "location", "place")
	})
}

func TestDeltaAssignMatchesOneShot(t *testing.T) {
	// Assign realizes a VIRTUAL attribute, so it runs over the sensors
	// schema (where temperature is virtual) with sensor-shaped tuples.
	genSensor := func(rng *rand.Rand) value.Tuple {
		sensors := []string{"s01", "s02", "s03", "s04", "s05", "s06"}
		locations := []string{"office", "corridor", "roof"}
		return value.Tuple{
			value.NewService(sensors[rng.Intn(len(sensors))]),
			value.NewString(locations[rng.Intn(len(locations))]),
		}
	}
	for seed := int64(0); seed < deltaSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		op, err := algebra.NewDeltaAssignConst(paperenv.SensorsSchema(), "temperature", value.NewReal(21.5))
		if err != nil {
			t.Fatal(err)
		}
		w := newWorld(paperenv.SensorsSchema(), rng, genSensor)
		out := map[string]value.Tuple{}
		for step := 0; step < deltaSteps; step++ {
			d, err := op.Apply(w.step())
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			fold(t, out, d, seed, step)
			want, err := algebra.AssignConst(w.relation(), "temperature", value.NewReal(21.5))
			if err != nil {
				t.Fatalf("seed %d step %d: one-shot: %v", seed, step, err)
			}
			requireEqual(t, out, want, seed, step)
		}
	}
}

func TestDeltaJoinMatchesOneShot(t *testing.T) {
	for seed := int64(0); seed < deltaSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		op, err := algebra.NewDeltaJoin(paperenv.TemperaturesSchema(), paperenv.SurveillanceSchema())
		if err != nil {
			t.Fatal(err)
		}
		left := newWorld(paperenv.TemperaturesSchema(), rng, genReading)
		right := newWorld(paperenv.SurveillanceSchema(), rng, genStaff)
		out := map[string]value.Tuple{}
		for step := 0; step < deltaSteps; step++ {
			d, err := op.Apply(left.step(), right.step())
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			fold(t, out, d, seed, step)
			want, err := algebra.NaturalJoin(left.relation(), right.relation())
			if err != nil {
				t.Fatalf("seed %d step %d: one-shot: %v", seed, step, err)
			}
			requireEqual(t, out, want, seed, step)
		}
	}
}

func TestDeltaSetOpsMatchOneShot(t *testing.T) {
	cases := []struct {
		name    string
		kind    int
		oneShot func(a, b *algebra.XRelation) (*algebra.XRelation, error)
	}{
		{"union", algebra.DeltaUnion, algebra.Union},
		{"intersect", algebra.DeltaIntersect, algebra.Intersect},
		{"diff", algebra.DeltaDiff, algebra.Diff},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < deltaSeeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				op, err := algebra.NewDeltaSetOp(tc.kind, paperenv.TemperaturesSchema(), paperenv.TemperaturesSchema())
				if err != nil {
					t.Fatal(err)
				}
				// Both sides draw from the SAME small domain so overlap —
				// where set-op transitions live — is common.
				left := newWorld(paperenv.TemperaturesSchema(), rng, genReading)
				right := newWorld(paperenv.TemperaturesSchema(), rng, genReading)
				out := map[string]value.Tuple{}
				for step := 0; step < deltaSteps; step++ {
					d, err := op.Apply(left.step(), right.step())
					if err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					fold(t, out, d, seed, step)
					want, err := tc.oneShot(left.relation(), right.relation())
					if err != nil {
						t.Fatalf("seed %d step %d: one-shot: %v", seed, step, err)
					}
					requireEqual(t, out, want, seed, step)
				}
			}
		})
	}
}

func TestDeltaAggregateMatchesOneShot(t *testing.T) {
	groupBy := []string{"location"}
	aggs := []algebra.AggSpec{
		{Func: algebra.Count, As: "n"},
		{Func: algebra.Sum, Attr: "temperature", As: "total"},
		{Func: algebra.Min, Attr: "temperature", As: "low"},
		{Func: algebra.Max, Attr: "temperature", As: "high"},
		{Func: algebra.Mean, Attr: "temperature", As: "avg"},
	}
	runUnary(t, func() interface {
		Apply(algebra.Delta) (algebra.Delta, error)
	} {
		op, err := algebra.NewDeltaAggregate(paperenv.TemperaturesSchema(), groupBy, aggs)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}, func(r *algebra.XRelation) (*algebra.XRelation, error) {
		return algebra.Aggregate(r, groupBy, aggs)
	})
}

func TestDeltaGateMultisetToSet(t *testing.T) {
	// The gate sees MULTISET traffic (repeated inserts of one tuple) and
	// must emit set transitions only at 0↔positive boundaries.
	for seed := int64(0); seed < deltaSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gate := algebra.NewDeltaGate()
		counts := map[string]int{}
		tuples := map[string]value.Tuple{}
		set := map[string]value.Tuple{}
		for step := 0; step < deltaSteps; step++ {
			var enter, leave []value.Tuple
			for i := rng.Intn(5); i > 0; i-- {
				tu := genReading(rng)
				enter = append(enter, tu)
				counts[tu.Key()]++
				tuples[tu.Key()] = tu
			}
			for k, c := range counts {
				if c > 0 && rng.Intn(3) == 0 {
					leave = append(leave, tuples[k])
					counts[k]--
				}
			}
			d, err := gate.Apply(enter, leave)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			fold(t, set, d, seed, step)
			for k, c := range counts {
				_, present := set[k]
				if (c > 0) != present {
					t.Fatalf("seed %d step %d: gate set state for %s: count=%d present=%v", seed, step, k, c, present)
				}
			}
		}
	}
}

func TestDeltaGateUnderflowErrors(t *testing.T) {
	gate := algebra.NewDeltaGate()
	tu := genReading(rand.New(rand.NewSource(1)))
	if _, err := gate.Apply(nil, []value.Tuple{tu}); err == nil {
		t.Fatal("leaving an absent tuple must error")
	}
}

func TestDeltaOperatorsResetClearState(t *testing.T) {
	// After Reset a re-fed full state must reproduce the same output as a
	// fresh operator (re-init ticks depend on this).
	rng := rand.New(rand.NewSource(42))
	op, err := algebra.NewDeltaProject(paperenv.TemperaturesSchema(), []string{"location"})
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(paperenv.TemperaturesSchema(), rng, genReading)
	for step := 0; step < 10; step++ {
		if _, err := op.Apply(w.step()); err != nil {
			t.Fatal(err)
		}
	}
	op.Reset()
	var full algebra.Delta
	for _, tu := range w.cur {
		full.Ins = append(full.Ins, tu)
	}
	d, err := op.Apply(full)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]value.Tuple{}
	fold(t, out, d, 42, 0)
	want, err := algebra.Project(w.relation(), []string{"location"})
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, out, want, 42, 0)
}
