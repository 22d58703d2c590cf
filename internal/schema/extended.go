package schema

import (
	"fmt"
	"strings"

	"serena/internal/value"
)

// ExtAttr is one attribute of an extended relation schema together with its
// real/virtual status (Definition 2: {realSchema(R), virtualSchema(R)} is a
// partition of schema(R)).
type ExtAttr struct {
	Attribute
	Virtual bool
}

// String renders "name TYPE [VIRTUAL]" in Table 2 style.
func (a ExtAttr) String() string {
	if a.Virtual {
		return a.Attribute.String() + " VIRTUAL"
	}
	return a.Attribute.String()
}

// Extended is an extended relation schema (Definition 2): an ordered list of
// real and virtual attributes plus a finite set of binding patterns.
// Extended schemas are immutable once built; operators derive new schemas.
type Extended struct {
	name      string
	attrs     []ExtAttr
	index     map[string]int // name → position in attrs
	realIdx   map[string]int // name → position among real attributes (δ_R of Def. 4, 0-based)
	realCount int
	bps       []BindingPattern
	realRel   *Rel // cached layout of real attributes, the tuple schema
}

// NewExtended validates and builds an extended relation schema. Binding
// pattern constraints follow Definition 2:
//   - serviceAttr ∈ realSchema(R) and has type SERVICE or STRING,
//   - schema(Input_ψ) ⊆ schema(R) with matching types,
//   - schema(Output_ψ) ⊆ virtualSchema(R) with matching types.
func NewExtended(name string, attrs []ExtAttr, bps []BindingPattern) (*Extended, error) {
	e := &Extended{
		name:    name,
		attrs:   append([]ExtAttr(nil), attrs...),
		index:   make(map[string]int, len(attrs)),
		realIdx: make(map[string]int),
	}
	realAttrs := make([]Attribute, 0, len(attrs))
	for i, a := range e.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("schema: %s: attribute %d has empty name", name, i+1)
		}
		if !a.Type.Valid() || a.Type == value.Null {
			return nil, fmt.Errorf("schema: %s: attribute %q has invalid type", name, a.Name)
		}
		if _, dup := e.index[a.Name]; dup {
			return nil, fmt.Errorf("schema: %s: duplicate attribute %q", name, a.Name)
		}
		e.index[a.Name] = i
		if !a.Virtual {
			e.realIdx[a.Name] = e.realCount
			e.realCount++
			realAttrs = append(realAttrs, a.Attribute)
		}
	}
	rr, err := NewRel(realAttrs...)
	if err != nil {
		return nil, fmt.Errorf("schema: %s: %w", name, err)
	}
	e.realRel = rr

	e.bps = append([]BindingPattern(nil), bps...)
	sortBPs(e.bps)
	seen := make(map[string]bool, len(e.bps))
	for _, bp := range e.bps {
		if bp.Proto == nil {
			return nil, fmt.Errorf("schema: %s: binding pattern without prototype", name)
		}
		if seen[bp.ID()] {
			return nil, fmt.Errorf("schema: %s: duplicate binding pattern %s", name, bp.ID())
		}
		seen[bp.ID()] = true
		if err := e.checkBP(bp); err != nil {
			return nil, fmt.Errorf("schema: %s: binding pattern %s: %w", name, bp.ID(), err)
		}
	}
	return e, nil
}

// MustExtended is NewExtended panicking on error, for static declarations.
func MustExtended(name string, attrs []ExtAttr, bps []BindingPattern) *Extended {
	e, err := NewExtended(name, attrs, bps)
	if err != nil {
		panic(err)
	}
	return e
}

func (e *Extended) checkBP(bp BindingPattern) error {
	si, ok := e.index[bp.ServiceAttr]
	if !ok {
		return fmt.Errorf("service attribute %q not in schema", bp.ServiceAttr)
	}
	sa := e.attrs[si]
	if sa.Virtual {
		return fmt.Errorf("service attribute %q must be real", bp.ServiceAttr)
	}
	if sa.Type != value.Service && sa.Type != value.String {
		return fmt.Errorf("service attribute %q must have type SERVICE (or STRING), has %s", bp.ServiceAttr, sa.Type)
	}
	for _, in := range bp.Proto.Input.Attrs() {
		i, ok := e.index[in.Name]
		if !ok {
			return fmt.Errorf("input attribute %q not in schema", in.Name)
		}
		if e.attrs[i].Type != in.Type {
			return fmt.Errorf("input attribute %q: schema type %s ≠ prototype type %s",
				in.Name, e.attrs[i].Type, in.Type)
		}
	}
	for _, out := range bp.Proto.Output.Attrs() {
		i, ok := e.index[out.Name]
		if !ok {
			return fmt.Errorf("output attribute %q not in schema", out.Name)
		}
		if !e.attrs[i].Virtual {
			return fmt.Errorf("output attribute %q must be virtual", out.Name)
		}
		if e.attrs[i].Type != out.Type {
			return fmt.Errorf("output attribute %q: schema type %s ≠ prototype type %s",
				out.Name, e.attrs[i].Type, out.Type)
		}
	}
	return nil
}

// Name returns the relation symbol (may be empty for derived schemas).
func (e *Extended) Name() string { return e.name }

// WithName returns a copy of the schema carrying the given relation symbol.
func (e *Extended) WithName(name string) *Extended {
	c := *e
	c.name = name
	return &c
}

// Arity returns type(R), the total number of attributes (real + virtual).
func (e *Extended) Arity() int { return len(e.attrs) }

// RealArity returns |realSchema(R)|, the tuple width (Definition 3).
func (e *Extended) RealArity() int { return e.realCount }

// Attrs returns the ordered extended attributes (callers must not mutate).
func (e *Extended) Attrs() []ExtAttr { return e.attrs }

// Names returns all attribute names in schema order.
func (e *Extended) Names() []string {
	out := make([]string, len(e.attrs))
	for i, a := range e.attrs {
		out[i] = a.Name
	}
	return out
}

// RealNames returns the names of real attributes in schema order.
func (e *Extended) RealNames() []string { return e.realRel.Names() }

// RealRel returns the relation schema over the real attributes — the layout
// of stored tuples (Definition 3).
func (e *Extended) RealRel() *Rel { return e.realRel }

// Has reports whether the named attribute is in schema(R).
func (e *Extended) Has(name string) bool { _, ok := e.index[name]; return ok }

// IsReal reports whether the named attribute is in realSchema(R).
func (e *Extended) IsReal(name string) bool { _, ok := e.realIdx[name]; return ok }

// IsVirtual reports whether the named attribute is in virtualSchema(R).
func (e *Extended) IsVirtual(name string) bool {
	i, ok := e.index[name]
	return ok && e.attrs[i].Virtual
}

// TypeOf returns the declared type of the named attribute.
func (e *Extended) TypeOf(name string) (value.Kind, bool) {
	if i, ok := e.index[name]; ok {
		return e.attrs[i].Type, true
	}
	return 0, false
}

// RealIndex implements δ_R of Definition 4 (0-based): the coordinate of the
// named real attribute within stored tuples. It returns -1 for virtual or
// unknown attributes — projecting tuples onto virtual attributes is
// undefined in the model.
func (e *Extended) RealIndex(name string) int {
	if i, ok := e.realIdx[name]; ok {
		return i
	}
	return -1
}

// RealIndexes maps a list of real attribute names to tuple coordinates,
// erroring on virtual or unknown names (Definition 4 restriction).
func (e *Extended) RealIndexes(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		j := e.RealIndex(n)
		if j < 0 {
			if e.Has(n) {
				return nil, fmt.Errorf("schema: cannot project tuple onto virtual attribute %q", n)
			}
			return nil, fmt.Errorf("schema: unknown attribute %q", n)
		}
		out[i] = j
	}
	return out, nil
}

// BindingPatterns returns BP(R) in deterministic order (callers must not
// mutate).
func (e *Extended) BindingPatterns() []BindingPattern { return e.bps }

// FindBP looks a binding pattern up by prototype name and (optionally)
// service attribute. With an empty serviceAttr it returns the unique BP for
// the prototype and errors when several exist.
func (e *Extended) FindBP(protoName, serviceAttr string) (BindingPattern, error) {
	var found []BindingPattern
	for _, bp := range e.bps {
		if bp.Proto.Name != protoName {
			continue
		}
		if serviceAttr != "" && bp.ServiceAttr != serviceAttr {
			continue
		}
		found = append(found, bp)
	}
	switch len(found) {
	case 0:
		if serviceAttr != "" {
			return BindingPattern{}, fmt.Errorf("schema: %s: no binding pattern %s[%s]", e.name, protoName, serviceAttr)
		}
		return BindingPattern{}, fmt.Errorf("schema: %s: no binding pattern for prototype %s", e.name, protoName)
	case 1:
		return found[0], nil
	}
	return BindingPattern{}, fmt.Errorf("schema: %s: prototype %s bound via several service attributes; qualify as proto[attr]", e.name, protoName)
}

// Equal reports full schema equality: same ordered attributes (names, types,
// virtual flags) and the same binding pattern set. The set operators of the
// algebra require Equal schemas.
func (e *Extended) Equal(o *Extended) bool {
	if len(e.attrs) != len(o.attrs) || len(e.bps) != len(o.bps) {
		return false
	}
	for i := range e.attrs {
		if e.attrs[i] != o.attrs[i] {
			return false
		}
	}
	for i := range e.bps { // both sorted by ID
		if e.bps[i].ID() != o.bps[i].ID() {
			return false
		}
		if !protoEqual(e.bps[i].Proto, o.bps[i].Proto) {
			return false
		}
	}
	return true
}

func protoEqual(a, b *Prototype) bool {
	if a == b {
		return true
	}
	return a.Name == b.Name && a.Active == b.Active &&
		a.Input.Equal(b.Input) && a.Output.Equal(b.Output)
}

// String renders the Table 2 pseudo-DDL.
func (e *Extended) String() string {
	var b strings.Builder
	b.WriteString("EXTENDED RELATION ")
	if e.name != "" {
		b.WriteString(e.name)
		b.WriteString(" ")
	}
	b.WriteString("(\n")
	for i, a := range e.attrs {
		b.WriteString("  ")
		b.WriteString(a.String())
		if i < len(e.attrs)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString(")")
	if len(e.bps) > 0 {
		b.WriteString(" USING BINDING PATTERNS (\n")
		for i, bp := range e.bps {
			b.WriteString("  ")
			b.WriteString(bp.String())
			if i < len(e.bps)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString(")")
	}
	b.WriteString(";")
	return b.String()
}
