package value

import (
	"testing"
	"testing/quick"
)

func tup(vs ...Value) Tuple { return Tuple(vs) }

func TestTupleClone(t *testing.T) {
	orig := tup(NewInt(1), NewString("a"))
	c := orig.Clone()
	if !c.Equal(orig) {
		t.Fatal("clone differs")
	}
	c[0] = NewInt(2)
	if orig[0].Int() != 1 {
		t.Fatal("clone aliases original")
	}
	if Tuple(nil).Clone() != nil {
		t.Fatal("nil clone should stay nil")
	}
}

func TestTupleProject(t *testing.T) {
	u := tup(NewInt(10), NewInt(20), NewInt(30))
	got := u.Project([]int{2, 0})
	want := tup(NewInt(30), NewInt(10))
	if !got.Equal(want) {
		t.Fatalf("Project = %v want %v", got, want)
	}
	if len(u.Project(nil)) != 0 {
		t.Fatal("empty projection should yield empty tuple")
	}
}

func TestTupleEqualAndCompare(t *testing.T) {
	a := tup(NewInt(1), NewString("x"))
	b := tup(NewInt(1), NewString("x"))
	c := tup(NewInt(1), NewString("y"))
	short := tup(NewInt(1))
	if !a.Equal(b) || a.Equal(c) || a.Equal(short) {
		t.Fatal("Equal broken")
	}
	if a.Compare(b) != 0 || a.Compare(c) >= 0 || c.Compare(a) <= 0 {
		t.Fatal("Compare broken")
	}
	if short.Compare(a) >= 0 || a.Compare(short) <= 0 {
		t.Fatal("prefix tuples should order first")
	}
}

func TestTupleKeyDistinguishes(t *testing.T) {
	// Keys must not collide across different arrangements of the same text.
	a := tup(NewString("ab"), NewString("c"))
	b := tup(NewString("a"), NewString("bc"))
	if a.Key() == b.Key() {
		t.Fatal("tuple keys collide across boundaries")
	}
	if a.Key() != tup(NewString("ab"), NewString("c")).Key() {
		t.Fatal("identical tuples must share keys")
	}
}

func TestTupleString(t *testing.T) {
	s := tup(NewInt(1), NewNull(), NewService("email")).String()
	if s != "(1, *, email)" {
		t.Fatalf("String = %q", s)
	}
}

func TestQuickTupleKeyInjective(t *testing.T) {
	f := func(a, b []int64) bool {
		ta := make(Tuple, len(a))
		for i, x := range a {
			ta[i] = NewInt(x)
		}
		tb := make(Tuple, len(b))
		for i, x := range b {
			tb[i] = NewInt(x)
		}
		return (ta.Key() == tb.Key()) == ta.Equal(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
