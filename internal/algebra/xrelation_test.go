package algebra_test

import (
	"strings"
	"testing"

	"serena/internal/algebra"
	"serena/internal/paperenv"
	"serena/internal/schema"
	"serena/internal/value"
)

func TestNewValidatesAndDedups(t *testing.T) {
	sch := paperenv.ContactsSchema()
	dup := value.Tuple{value.NewString("Carla"), value.NewString("carla@elysee.fr"), value.NewService("email")}
	r, err := algebra.New(sch, []value.Tuple{dup, dup.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("set semantics violated: Len = %d", r.Len())
	}
	if !r.Contains(dup) {
		t.Fatal("Contains broken")
	}
	// Arity mismatch (tuples are over the REAL schema only, Def. 3).
	_, err = algebra.New(sch, []value.Tuple{{value.NewString("x")}})
	if err == nil {
		t.Fatal("tuple over full schema arity accepted")
	}
	// Type mismatch.
	_, err = algebra.New(sch, []value.Tuple{{value.NewInt(1), value.NewString("a"), value.NewService("email")}})
	if err == nil {
		t.Fatal("ill-typed tuple accepted")
	}
	if _, err := algebra.New(nil, nil); err == nil {
		t.Fatal("nil schema accepted")
	}
}

func TestNewCoercesStringToServiceRef(t *testing.T) {
	sch := paperenv.ContactsSchema()
	r, err := algebra.New(sch, []value.Tuple{
		{value.NewString("Carla"), value.NewString("carla@elysee.fr"), value.NewString("email")},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Tuples()[0][2]
	if got.Kind() != value.Service || got.ServiceRef() != "email" {
		t.Fatalf("messenger not coerced to SERVICE: %v (%s)", got, got.Kind())
	}
}

func TestEqualContents(t *testing.T) {
	a := paperenv.Contacts()
	b := paperenv.Contacts()
	if !a.EqualContents(b) {
		t.Fatal("identical relations differ")
	}
	c := algebra.MustNew(paperenv.ContactsSchema(), a.Tuples()[:2])
	if a.EqualContents(c) {
		t.Fatal("different cardinalities equal")
	}
	d := algebra.MustNew(paperenv.ContactsSchema(), []value.Tuple{
		a.Tuples()[0], a.Tuples()[1],
		{value.NewString("Z"), value.NewString("z@z"), value.NewService("email")},
	})
	if a.EqualContents(d) {
		t.Fatal("different contents equal")
	}
}

func TestSortedDeterministic(t *testing.T) {
	r := paperenv.Contacts()
	s1, s2 := r.Sorted(), r.Sorted()
	for i := range s1 {
		if !s1[i].Equal(s2[i]) {
			t.Fatal("Sorted not deterministic")
		}
	}
	if s1[0][0].Str() != "Carla" {
		t.Fatalf("expected Carla first, got %v", s1[0])
	}
}

func TestTableRendering(t *testing.T) {
	out := paperenv.Contacts().Table()
	for _, frag := range []string{"name", "text", "messenger", "Nicolas", "email", "*"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table() missing %q:\n%s", frag, out)
		}
	}
	// Virtual columns render '*' on every row.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + separator + 3 tuples
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestEmptyAndString(t *testing.T) {
	e := algebra.Empty(paperenv.ContactsSchema())
	if e.Len() != 0 {
		t.Fatal("Empty not empty")
	}
	if !strings.Contains(e.String(), "contacts") {
		t.Fatalf("String() = %q", e.String())
	}
	derived, err := algebra.Project(paperenv.Contacts(), []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(derived.String(), "<derived>") {
		t.Fatalf("derived String() = %q", derived.String())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on invalid tuples")
		}
	}()
	algebra.MustNew(paperenv.ContactsSchema(), []value.Tuple{{value.NewInt(3)}})
}

func TestXRelationOverPlainSchema(t *testing.T) {
	// Standard relations are a special case of X-Relations (Section 2.3).
	rel := schema.MustExtended("nums", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "n", Type: value.Int}}}, nil)
	r := algebra.MustNew(rel, []value.Tuple{{value.NewInt(1)}, {value.NewInt(2)}})
	if r.Len() != 2 || r.Schema().RealArity() != 1 {
		t.Fatal("plain relation lifting broken")
	}
}
