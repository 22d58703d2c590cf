// Package catalog implements the Extended Table Manager of the PEMS
// prototype (Gripay et al., EDBT 2010, Section 5.1): it executes Serena DDL
// statements to declare prototypes, scripted services and XD-Relations, and
// manages their data (insertion and deletion of tuples).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"serena/internal/ddl"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// stubService implements a SERVICE … IMPLEMENTS … declaration as an inert
// stub that returns empty relations; real environments register live
// services through the ERM instead of DDL.
func stubService(ref string, protos []string) service.Service {
	impls := make(map[string]service.InvokeFunc, len(protos))
	for _, p := range protos {
		impls[p] = func(value.Tuple, service.Instant) ([]value.Tuple, error) { return nil, nil }
	}
	return service.NewFunc(ref, impls)
}

// Catalog is the table manager: named XD-Relations plus the prototype and
// service declarations living in a registry. It is safe for concurrent use.
type Catalog struct {
	mu   sync.RWMutex
	reg  *service.Registry
	rels map[string]*stream.XDRelation
	// ddlServices remembers SERVICE … IMPLEMENTS … declarations (ref →
	// prototype names) so a schema dump can re-declare them; code-registered
	// services are not recorded — their owners re-register them on restart.
	ddlServices map[string][]string

	// OnCreateRelation, when set, is notified of every new XD-Relation
	// (the PEMS wires this to the continuous executor).
	OnCreateRelation func(x *stream.XDRelation)
	// OnDropRelation is notified when a relation is dropped.
	OnDropRelation func(name string)
}

// New returns an empty catalog over the given registry.
func New(reg *service.Registry) *Catalog {
	return &Catalog{
		reg:         reg,
		rels:        make(map[string]*stream.XDRelation),
		ddlServices: make(map[string][]string),
	}
}

// Relation resolves a dynamic relation by name.
func (c *Catalog) Relation(name string) (*stream.XDRelation, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	x, ok := c.rels[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q", name)
	}
	return x, nil
}

// Names returns the sorted names of all declared relations.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.rels))
	for n := range c.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Execute runs one parsed DDL statement. Data statements are stamped with
// the given instant.
func (c *Catalog) Execute(st ddl.Statement, at service.Instant) error {
	switch t := st.(type) {
	case *ddl.CreatePrototype:
		p, err := buildPrototype(t)
		if err != nil {
			return err
		}
		return c.reg.RegisterPrototype(p)

	case *ddl.CreateService:
		if err := c.reg.Register(stubService(t.Ref, t.Prototypes)); err != nil {
			return err
		}
		c.mu.Lock()
		c.ddlServices[t.Ref] = append([]string(nil), t.Prototypes...)
		c.mu.Unlock()
		return nil

	case *ddl.CreateRelation:
		if strings.HasPrefix(t.Name, "sys$") {
			return fmt.Errorf("catalog: relation %q: the sys$ prefix is reserved for system relations", t.Name)
		}
		sch, err := c.buildSchema(t)
		if err != nil {
			return err
		}
		if err := c.checkURSA(sch); err != nil {
			return err
		}
		var x *stream.XDRelation
		if t.Stream {
			x = stream.NewInfinite(sch)
		} else {
			x = stream.NewFinite(sch)
		}
		if t.OnOverload != "" {
			pol, err := resilience.ParseOverloadPolicy(t.OnOverload)
			if err != nil {
				return fmt.Errorf("catalog: relation %q: %w", t.Name, err)
			}
			x.SetOverloadPolicy(pol, t.Capacity)
		}
		c.mu.Lock()
		if _, dup := c.rels[t.Name]; dup {
			c.mu.Unlock()
			return fmt.Errorf("catalog: relation %q already exists", t.Name)
		}
		c.rels[t.Name] = x
		cb := c.OnCreateRelation
		c.mu.Unlock()
		if cb != nil {
			cb(x)
		}
		return nil

	case *ddl.Insert:
		x, err := c.Relation(t.Relation)
		if err != nil {
			return err
		}
		for _, row := range t.Rows {
			if err := x.Insert(at, value.Tuple(row)); err != nil {
				return err
			}
		}
		return nil

	case *ddl.Delete:
		x, err := c.Relation(t.Relation)
		if err != nil {
			return err
		}
		for _, row := range t.Rows {
			if err := x.Delete(at, value.Tuple(row)); err != nil {
				return err
			}
		}
		return nil

	case *ddl.Drop:
		c.mu.Lock()
		if _, ok := c.rels[t.Name]; !ok {
			c.mu.Unlock()
			return fmt.Errorf("catalog: unknown relation %q", t.Name)
		}
		delete(c.rels, t.Name)
		cb := c.OnDropRelation
		c.mu.Unlock()
		if cb != nil {
			cb(t.Name)
		}
		return nil
	case *ddl.RegisterQuery, *ddl.UnregisterQuery:
		return fmt.Errorf("catalog: REGISTER/UNREGISTER QUERY must be executed through a PEMS (the catalog manages tables, the query processor manages queries)")
	}
	return fmt.Errorf("catalog: unsupported statement %T", st)
}

func buildPrototype(t *ddl.CreatePrototype) (*schema.Prototype, error) {
	toRel := func(ps []ddl.Param) (*schema.Rel, error) {
		attrs := make([]schema.Attribute, len(ps))
		for i, p := range ps {
			attrs[i] = schema.Attribute{Name: p.Name, Type: p.Type}
		}
		return schema.NewRel(attrs...)
	}
	in, err := toRel(t.Inputs)
	if err != nil {
		return nil, fmt.Errorf("catalog: prototype %s: %w", t.Name, err)
	}
	out, err := toRel(t.Outputs)
	if err != nil {
		return nil, fmt.Errorf("catalog: prototype %s: %w", t.Name, err)
	}
	return schema.NewPrototype(t.Name, in, out, t.Active)
}

// buildSchema resolves a CreateRelation against the declared prototypes,
// checking explicit binding-pattern parameter lists (Table 2 style) against
// the prototype declarations.
func (c *Catalog) buildSchema(t *ddl.CreateRelation) (*schema.Extended, error) {
	attrs := make([]schema.ExtAttr, len(t.Attrs))
	for i, a := range t.Attrs {
		attrs[i] = schema.ExtAttr{
			Attribute: schema.Attribute{Name: a.Name, Type: a.Type},
			Virtual:   a.Virtual,
		}
	}
	var bps []schema.BindingPattern
	for _, b := range t.BPs {
		p, err := c.reg.Prototype(b.Proto)
		if err != nil {
			return nil, fmt.Errorf("catalog: relation %s: %w", t.Name, err)
		}
		if b.Explicit {
			if err := checkNames("input", b.Inputs, p.Input); err != nil {
				return nil, fmt.Errorf("catalog: relation %s, binding pattern %s: %w", t.Name, b.Proto, err)
			}
			if err := checkNames("output", b.Outputs, p.Output); err != nil {
				return nil, fmt.Errorf("catalog: relation %s, binding pattern %s: %w", t.Name, b.Proto, err)
			}
		}
		bps = append(bps, schema.BindingPattern{Proto: p, ServiceAttr: b.ServiceAttr})
	}
	return schema.NewExtended(t.Name, attrs, bps)
}

// checkURSA enforces the Universal Relation Schema Assumption the paper
// keeps (Section 2.3.2): an attribute name means the same thing — and in
// particular carries the same type — in every relation of the environment.
func (c *Catalog) checkURSA(sch *schema.Extended) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, a := range sch.Attrs() {
		for name, x := range c.rels {
			if t, ok := x.Schema().TypeOf(a.Name); ok && t != a.Type {
				return fmt.Errorf("catalog: URSA violation: attribute %q is %s here but %s in relation %q",
					a.Name, a.Type, t, name)
			}
		}
	}
	return nil
}

func checkNames(kind string, names []string, rel *schema.Rel) error {
	if len(names) != rel.Arity() {
		return fmt.Errorf("%s list has %d names, prototype declares %d", kind, len(names), rel.Arity())
	}
	for i, n := range names {
		if rel.Attrs()[i].Name != n {
			return fmt.Errorf("%s %d is %q, prototype declares %q", kind, i+1, n, rel.Attrs()[i].Name)
		}
	}
	return nil
}
