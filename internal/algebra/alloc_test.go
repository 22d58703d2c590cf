package algebra_test

import (
	"fmt"
	"testing"

	"serena/internal/algebra"
	"serena/internal/paperenv"
	"serena/internal/value"
)

// reading is the n-th row of a one-location temperatures relation.
func reading(n int) value.Tuple {
	return value.Tuple{
		value.NewService(fmt.Sprintf("sensor%05d", n)),
		value.NewString("office"),
		value.NewReal(float64(n%40) + 0.25),
	}
}

// deltaAggregateChangeAllocs fills one group of n members, then returns the
// allocations of one instant that inserts a member and deletes another.
func deltaAggregateChangeAllocs(t *testing.T, n int) float64 {
	t.Helper()
	agg, err := algebra.NewDeltaAggregate(paperenv.TemperaturesSchema(), []string{"location"}, []algebra.AggSpec{
		{Func: algebra.Mean, Attr: "temperature", As: "avgtemp"},
		{Func: algebra.Count, As: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	rows := make([]value.Tuple, n+runs+1) // AllocsPerRun adds a warm-up run
	for i := range rows {
		rows[i] = reading(i)
	}
	if _, err := agg.Apply(algebra.Delta{Ins: rows[:n]}); err != nil {
		t.Fatal(err)
	}
	// Each run slides the group by one member, so it keeps n members and
	// every run changes the aggregate row.
	next := n
	return testing.AllocsPerRun(runs, func() {
		d := algebra.Delta{Ins: rows[next : next+1], Del: rows[next-n : next-n+1]}
		next++
		out, err := agg.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Ins) != 1 || len(out.Del) != 1 {
			t.Fatalf("one change emitted %d inserts and %d deletes, want 1 and 1", len(out.Ins), len(out.Del))
		}
	})
}

// TestDeltaAggregateAllocatesPerChange pins the delta aggregate's cost of
// one change at a count that does not grow with the group: the members are
// ordered by the keys the group already holds, so none is re-keyed. Measured
// 19 allocations at both sizes; when every comparison re-keyed two members,
// 29 212 at 256 and 724 828 at 4096.
func TestDeltaAggregateAllocatesPerChange(t *testing.T) {
	small := deltaAggregateChangeAllocs(t, 256)
	large := deltaAggregateChangeAllocs(t, 4096)
	if small != large || large > 25 {
		t.Errorf("one change allocates %.0f in a group of 256 and %.0f in a group of 4096, want equal and at most 25", small, large)
	}
}

// TestAggregateAllocations pins a one-shot aggregate over 1 000 rows in one
// group: each member is keyed once, not at every comparison. Measured 3 050
// allocations; when the comparator re-keyed members, 17 199.
func TestAggregateAllocations(t *testing.T) {
	rows := make([]value.Tuple, 1000)
	for i := range rows {
		rows[i] = reading(i)
	}
	r := algebra.MustNew(paperenv.TemperaturesSchema(), rows)
	aggs := []algebra.AggSpec{{Func: algebra.Mean, Attr: "temperature", As: "avgtemp"}}
	got := testing.AllocsPerRun(5, func() {
		if _, err := algebra.Aggregate(r, []string{"location"}, aggs); err != nil {
			t.Fatal(err)
		}
	})
	if got > 6100 {
		t.Errorf("one-shot aggregate of 1 000 rows: %.0f allocations, ceiling 6 100", got)
	}
}
