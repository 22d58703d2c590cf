package value

import "strings"

// Tuple is an element of D^n (paper Section 2.3.1). For extended relations
// tuples range only over the real schema (Definition 3); positional access
// therefore always refers to real-attribute coordinates.
type Tuple []Value

// Clone returns a copy of the tuple sharing the (immutable) values.
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Project returns the sub-tuple at the given coordinate indexes (paper
// Definition 4 generalized projection). It panics on out-of-range indexes,
// which indicates a schema-resolution bug upstream.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// Equal reports coordinate-wise equality of equal-length tuples.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !Equal(t[i], u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically coordinate by coordinate; shorter
// tuples order first on ties.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := Compare(t[i], u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Key builds an identity key for the tuple, suitable for set/multiset
// bookkeeping. Coordinates are separated by unit separators so that keys of
// distinct tuples never collide.
func (t Tuple) Key() string {
	var buf [128]byte
	b := buf[:0]
	for i, v := range t {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = v.appendKey(b)
	}
	return string(b)
}

// String renders the tuple as "(v1, v2, …)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
