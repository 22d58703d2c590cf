// Package schema implements the metadata layer of the Serena data model
// (Gripay et al., EDBT 2010, Section 2.3): relation schemas, prototypes of
// distributed functionalities, extended relation schemas with the
// real/virtual attribute partition (Definition 2), binding patterns, and the
// schema-transformation rules of the algebra operators (Table 3).
//
// The Universal Relation Schema Assumption (URSA) of the paper is enforced
// softly: within a single extended schema each attribute name is unique, and
// joins require name-shared attributes to carry identical types.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"serena/internal/value"
)

// Attribute is a named, typed column (an element of the attribute set A
// paired with its declared DDL type).
type Attribute struct {
	Name string
	Type value.Kind
}

// String renders "name TYPE".
func (a Attribute) String() string { return a.Name + " " + a.Type.String() }

// Rel is a plain relation schema: an ordered list of attributes. It is used
// for prototype input/output schemas (Section 2.3.1) and as the tuple layout
// of real attributes.
type Rel struct {
	attrs []Attribute
	index map[string]int
}

// NewRel builds a relation schema from attributes, rejecting duplicate
// names (attr_R must be injective).
func NewRel(attrs ...Attribute) (*Rel, error) {
	r := &Rel{attrs: append([]Attribute(nil), attrs...), index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("schema: attribute %d has empty name", i+1)
		}
		if !a.Type.Valid() || a.Type == value.Null {
			return nil, fmt.Errorf("schema: attribute %q has invalid type", a.Name)
		}
		if _, dup := r.index[a.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate attribute %q", a.Name)
		}
		r.index[a.Name] = i
	}
	return r, nil
}

// MustRel is NewRel for statically-known schemas; it panics on error.
func MustRel(attrs ...Attribute) *Rel {
	r, err := NewRel(attrs...)
	if err != nil {
		panic(err)
	}
	return r
}

// Arity returns type(R), the number of attributes.
func (r *Rel) Arity() int { return len(r.attrs) }

// Attrs returns the ordered attributes (callers must not mutate).
func (r *Rel) Attrs() []Attribute { return r.attrs }

// Names returns the ordered attribute names.
func (r *Rel) Names() []string {
	out := make([]string, len(r.attrs))
	for i, a := range r.attrs {
		out[i] = a.Name
	}
	return out
}

// Index returns the position of the named attribute, or -1.
func (r *Rel) Index(name string) int {
	if i, ok := r.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the named attribute belongs to the schema.
func (r *Rel) Has(name string) bool { _, ok := r.index[name]; return ok }

// Equal reports ordered schema equality (same names and types in the same
// positions).
func (r *Rel) Equal(o *Rel) bool {
	if r.Arity() != o.Arity() {
		return false
	}
	for i := range r.attrs {
		if r.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// DisjointFrom reports whether the two schemas share no attribute name.
func (r *Rel) DisjointFrom(o *Rel) bool {
	for name := range r.index {
		if o.Has(name) {
			return false
		}
	}
	return true
}

// SubsetOfNames reports whether every attribute name of r appears in the
// given name set.
func (r *Rel) SubsetOfNames(names map[string]bool) bool {
	for name := range r.index {
		if !names[name] {
			return false
		}
	}
	return true
}

// Conforms checks that the tuple matches the schema arity and that each
// coordinate is NULL or of (or coercible to) the declared type. It returns
// the possibly-coerced tuple.
func (r *Rel) Conforms(t value.Tuple) (value.Tuple, error) {
	if len(t) != len(r.attrs) {
		return nil, fmt.Errorf("schema: tuple arity %d, schema arity %d", len(t), len(r.attrs))
	}
	out := t
	for i, v := range t {
		if v.IsNull() || v.Kind() == r.attrs[i].Type {
			continue
		}
		cv, ok := value.Coerce(v, r.attrs[i].Type)
		if !ok {
			return nil, fmt.Errorf("schema: attribute %q expects %s, got %s",
				r.attrs[i].Name, r.attrs[i].Type, v.Kind())
		}
		if &out[0] == &t[0] {
			out = t.Clone()
		}
		out[i] = cv
	}
	return out, nil
}

// String renders "(a T, b U)".
func (r *Rel) String() string {
	parts := make([]string, len(r.attrs))
	for i, a := range r.attrs {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Prototype declares a distributed functionality (Section 2.3.1): disjoint
// input and output relation schemas plus the active/passive tag. Invocation
// of an active prototype has a non-negligible side effect on the physical
// environment (Section 2.1).
type Prototype struct {
	Name   string
	Input  *Rel
	Output *Rel
	Active bool
}

// NewPrototype validates the paper's constraints: non-empty output schema
// and disjoint input/output schemas.
func NewPrototype(name string, input, output *Rel, active bool) (*Prototype, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: prototype needs a name")
	}
	if input == nil {
		input = MustRel()
	}
	if output == nil || output.Arity() == 0 {
		return nil, fmt.Errorf("schema: prototype %q: output schema must be non-empty", name)
	}
	if !input.DisjointFrom(output) {
		return nil, fmt.Errorf("schema: prototype %q: input and output schemas must be disjoint", name)
	}
	return &Prototype{Name: name, Input: input, Output: output, Active: active}, nil
}

// MustPrototype is NewPrototype panicking on error, for static declarations.
func MustPrototype(name string, input, output *Rel, active bool) *Prototype {
	p, err := NewPrototype(name, input, output, active)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the pseudo-DDL of Table 1:
// "PROTOTYPE name( in… ) : ( out… ) [ACTIVE];".
func (p *Prototype) String() string {
	var b strings.Builder
	b.WriteString("PROTOTYPE ")
	b.WriteString(p.Name)
	b.WriteString(trimParens(p.Input.String()))
	b.WriteString(" : ")
	b.WriteString(trimParens(p.Output.String()))
	if p.Active {
		b.WriteString(" ACTIVE")
	}
	b.WriteString(";")
	return b.String()
}

func trimParens(s string) string {
	if s == "()" {
		return "( )"
	}
	return "( " + strings.TrimSuffix(strings.TrimPrefix(s, "("), ")") + " )"
}

// BindingPattern ties a prototype to the real attribute holding service
// references (Definition 2): bp = (prototype, serviceAttr).
type BindingPattern struct {
	Proto       *Prototype
	ServiceAttr string
}

// Active reports the paper's active(bp) predicate.
func (bp BindingPattern) Active() bool { return bp.Proto.Active }

// String renders the Table 2 notation "proto[svcAttr]( in… ) : ( out… )"
// with bare attribute names (types belong to the prototype declaration).
func (bp BindingPattern) String() string {
	return fmt.Sprintf("%s[%s] %s : %s",
		bp.Proto.Name, bp.ServiceAttr,
		nameList(bp.Proto.Input), nameList(bp.Proto.Output))
}

func nameList(r *Rel) string {
	names := r.Names()
	if len(names) == 0 {
		return "( )"
	}
	return "( " + strings.Join(names, ", ") + " )"
}

// ID is a compact identity "proto[attr]" used for lookup and in action sets.
func (bp BindingPattern) ID() string { return bp.Proto.Name + "[" + bp.ServiceAttr + "]" }

// sortBPs orders binding patterns deterministically by ID.
func sortBPs(bps []BindingPattern) {
	sort.Slice(bps, func(i, j int) bool { return bps[i].ID() < bps[j].ID() })
}
