package cq

import (
	"fmt"
	"testing"

	"serena/internal/algebra"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// The re-evaluation path has no walker of its own: the evaluator is what a
// query.Context needs to make Node.Eval continuous.
var (
	_ query.Environment     = (*evaluator)(nil)
	_ query.ContinuousHooks = (*evaluator)(nil)
)

// TestOneShotAgreesWithBothTickEvaluators is Section 4.2's definition of the
// operators without time-aware semantics, as a test: at every instant, the
// continuous result — re-evaluated or maintained by the delta program — is
// the one-shot operator applied to the instantaneous relations.
func TestOneShotAgreesWithBothTickEvaluators(t *testing.T) {
	names := func(rel string) query.Node { return query.NewProject(query.NewBase(rel), "name") }
	plans := map[string]func() query.Node{
		"project": func() query.Node { return query.NewProject(query.NewBase("contacts"), "name", "messenger") },
		"select": func() query.Node {
			return query.NewSelect(query.NewBase("contacts"),
				algebra.Compare(algebra.Attr("name"), algebra.Ne, algebra.Const(value.NewString("Carla"))))
		},
		"rename":    func() query.Node { return query.NewRename(query.NewBase("surveillance"), "name", "who") },
		"join":      func() query.Node { return query.NewJoin(query.NewBase("contacts"), query.NewBase("surveillance")) },
		"union":     func() query.Node { return query.NewUnion(names("contacts"), names("surveillance")) },
		"intersect": func() query.Node { return query.NewIntersect(names("contacts"), names("surveillance")) },
		"diff":      func() query.Node { return query.NewDiff(names("contacts"), names("surveillance")) },
		"assignConst": func() query.Node {
			return query.NewAssignConst(query.NewBase("contacts"), "text", value.NewString("hi"))
		},
		"assignAttr": func() query.Node { return query.NewAssignAttr(query.NewBase("contacts"), "text", "address") },
		"aggregate": func() query.Node {
			return query.NewAggregate(query.NewBase("surveillance"), []string{"location"},
				[]algebra.AggSpec{{Func: algebra.Count, As: "n"}})
		},
	}

	type world struct {
		exec *Executor
		rels map[string]*stream.XDRelation
	}
	reg, _ := paperenv.MustRegistry()
	newWorld := func(naive bool) world {
		w := world{exec: NewExecutor(reg), rels: map[string]*stream.XDRelation{
			"contacts":     stream.NewFinite(paperenv.ContactsSchema()),
			"surveillance": stream.NewFinite(paperenv.SurveillanceSchema()),
		}}
		for _, x := range w.rels {
			if err := w.exec.AddRelation(x); err != nil {
				t.Fatal(err)
			}
		}
		for name, plan := range plans {
			if _, err := w.exec.Register(name, plan()); err != nil {
				t.Fatalf("register %s: %v", name, err)
			}
			if err := w.exec.SetNaiveEvaluation(name, naive); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	worlds := map[string]world{"delta": newWorld(false), "naive": newWorld(true)}

	contacts, surveillance := paperenv.Contacts().Tuples(), paperenv.Surveillance().Tuples()
	guest := func(i int) value.Tuple {
		return value.Tuple{value.NewString(fmt.Sprintf("guest%d", i)), value.NewString("g@example.org"), value.NewService("email")}
	}
	// One history for both worlds: the paper's tuples arrive over the first
	// instants, guests come and go, and early tuples leave again.
	apply := func(at service.Instant, op func(x *stream.XDRelation, at service.Instant, tu value.Tuple) error, rel string, tu value.Tuple) {
		for mode, w := range worlds {
			if err := op(w.rels[rel], at, tu); err != nil {
				t.Fatalf("%s world, instant %d: %v", mode, at, err)
			}
		}
	}
	for at := service.Instant(0); at < 12; at++ {
		i := int(at)
		if i < len(contacts) {
			apply(at, (*stream.XDRelation).Insert, "contacts", contacts[i])
		}
		if i < len(surveillance) {
			apply(at, (*stream.XDRelation).Insert, "surveillance", surveillance[i])
		}
		if i%3 == 1 {
			apply(at, (*stream.XDRelation).Insert, "contacts", guest(i))
		}
		if i%3 == 0 && i >= 4 {
			apply(at, (*stream.XDRelation).Delete, "contacts", guest(i-2))
		}
		if i >= 8 && i-8 < len(surveillance) {
			apply(at, (*stream.XDRelation).Delete, "surveillance", surveillance[i-8])
		}
		for mode, w := range worlds {
			if _, err := w.exec.Tick(); err != nil {
				t.Fatalf("%s world, instant %d: %v", mode, at, err)
			}
			env := query.MapEnv{}
			for name, x := range w.rels {
				r, err := algebra.New(x.Schema(), x.Current())
				if err != nil {
					t.Fatal(err)
				}
				env[name] = r
			}
			for name, plan := range plans {
				want, err := query.Evaluate(plan(), env, reg, at)
				if err != nil {
					t.Fatalf("one-shot %s at %d: %v", name, at, err)
				}
				q, _ := w.exec.Query(name)
				if q.EvaluationMode() != mode {
					t.Fatalf("%s runs %s, want %s", name, q.EvaluationMode(), mode)
				}
				got := q.LastResult()
				if !got.Schema().Equal(want.Relation.Schema()) || !got.EqualContents(want.Relation) {
					t.Fatalf("%s tick of %s at instant %d:\n%s\none-shot over the same relations:\n%s",
						mode, name, at, got.Table(), want.Relation.Table())
				}
			}
		}
	}
}
