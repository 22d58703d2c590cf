// Package ddl parses the Serena Data Description Language (Gripay et al.,
// EDBT 2010, Section 5.1) — the pseudo-DDL of Tables 1 and 2 plus the data
// statements the Extended Table Manager needs:
//
//	PROTOTYPE name( in TYPE, … ) : ( out TYPE, … ) [ACTIVE];
//	SERVICE ref IMPLEMENTS proto, …;
//	EXTENDED RELATION name ( attr TYPE [VIRTUAL], … )
//	    [USING BINDING PATTERNS ( proto[svcAttr] [( in,… ) : ( out,… )], … )];
//	EXTENDED STREAM name ( … ) [USING BINDING PATTERNS ( … )];
//	INSERT INTO name VALUES ( lit, … )[, ( lit, … )…];
//	DELETE FROM name VALUES ( lit, … );
//	DROP RELATION name;
//	REGISTER QUERY name … AS body;
//	UNREGISTER QUERY name;
//	EXPLAIN [ANALYZE] body;
//
// A query body is Serena Algebra Language or Serena SQL, told apart by its
// first tokens and read in place with the grammar of internal/sal and
// internal/ssql. ParseQuery reads a body given on its own, as the PEMS
// entry points take one. Parsing yields statement ASTs; execution against
// a catalog lives in internal/catalog.
package ddl

import (
	"strconv"
	"strings"

	"serena/internal/lexer"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/sal"
	"serena/internal/ssql"
	"serena/internal/syntax"
	"serena/internal/value"
)

// Statement is one parsed DDL statement.
type Statement interface{ stmt() }

// Param is a named, typed parameter or attribute.
type Param struct {
	Name string
	Type value.Kind
}

// CreatePrototype declares a prototype (Table 1).
type CreatePrototype struct {
	Name    string
	Inputs  []Param
	Outputs []Param
	Active  bool
}

func (*CreatePrototype) stmt() {}

// CreateService declares a service and the prototypes it implements
// (Table 1). It is used by simulated/scripted environments; live
// environments discover services through the ERM instead.
type CreateService struct {
	Ref        string
	Prototypes []string
}

func (*CreateService) stmt() {}

// AttrDef is one attribute of an extended relation declaration.
type AttrDef struct {
	Name    string
	Type    value.Kind
	Virtual bool
}

// BPDef references a prototype and service attribute, with the optional
// explanatory parameter lists of Table 2 (checked against the prototype at
// execution time when present).
type BPDef struct {
	Proto       string
	ServiceAttr string
	Inputs      []string // optional
	Outputs     []string // optional
	Explicit    bool     // whether parameter lists were written
}

// CreateRelation declares an extended relation or (with Stream=true) an
// extended stream — a finite or infinite XD-Relation (Section 4.1).
type CreateRelation struct {
	Name   string
	Attrs  []AttrDef
	BPs    []BPDef
	Stream bool
	// OnOverload, when non-empty, bounds the relation's ingest path with
	// the named policy (BLOCK | SHED_OLDEST | SHED_NEWEST); Capacity > 0
	// overrides the default buffer bound.
	OnOverload string
	Capacity   int
}

func (*CreateRelation) stmt() {}

// Insert adds rows (over the real schema) to a relation.
type Insert struct {
	Relation string
	Rows     [][]value.Value
}

func (*Insert) stmt() {}

// Delete removes rows (over the real schema) from a relation.
type Delete struct {
	Relation string
	Rows     [][]value.Value
}

func (*Delete) stmt() {}

// Drop removes a relation declaration.
type Drop struct{ Name string }

func (*Drop) stmt() {}

// Query is a query body read in place: its exact source text and its
// parse, a SAL plan (Node) or a Serena SQL statement (Select) that Plan
// binds to an environment.
type Query struct {
	Source string
	Node   query.Node
	Select *ssql.Select
}

func (*Query) stmt() {}

// Plan returns the body's plan: the SAL plan as read, or the SQL statement
// bound to env, whose schemas place its WHERE conjuncts.
func (q *Query) Plan(env query.Environment) (query.Node, error) {
	if q.Select != nil {
		return q.Select.Bind(env)
	}
	return q.Node, nil
}

// RegisterQuery declares a continuous query inside a DDL script:
//
//	REGISTER QUERY alerts AS invoke[sendMessage](…);
//	REGISTER QUERY means  ON ERROR NULL
//	                      AS SELECT location, mean(temperature) AS avg
//	                         FROM temperatures[5] GROUP BY location;
//	REGISTER QUERY rollup INTO climate RETAIN 64 INSTANTS
//	                      AS aggregate[mean(temperature) as avg by location](
//	                         window[5](temperatures));
//
// The query body (Serena Algebra Language or Serena SQL) is parsed in
// place, and the PEMS query processor registers it — the catalog itself
// rejects the statement (queries are not tables). The optional ON ERROR
// clause picks the β degradation policy (FAIL, SKIP, or NULL) applied when
// a bound service fails mid-query; omitted, the executor's continuous
// default (SKIP) applies. The optional INTO clause materializes the query's
// output as a named derived XD-Relation other queries can read; RETAIN
// bounds how many instants of its event log are kept.
type RegisterQuery struct {
	Name string
	Query
	OnError string // "", "FAIL", "SKIP", or "NULL"
	Into    string // materialized output relation name ("" = none)
	Retain  int    // retention in instants (0 = engine default)
}

func (*RegisterQuery) stmt() {}

// UnregisterQuery removes a continuous query:
//
//	UNREGISTER QUERY alerts;
type UnregisterQuery struct{ Name string }

func (*UnregisterQuery) stmt() {}

// Explain requests a query plan instead of query results:
//
//	EXPLAIN SELECT photo FROM cameras USING checkPhoto WHERE quality >= 5;
//	EXPLAIN ANALYZE invoke[getTemperature](sensors);
//
// Plain EXPLAIN shows the optimizer's rewriting (original plan, applied
// Table 5 steps, optimized plan); EXPLAIN ANALYZE executes the plan in
// traced mode and annotates every operator with rows and wall time. The
// body (SAL or Serena SQL) is parsed in place.
type Explain struct {
	Query
	Analyze bool
}

func (*Explain) stmt() {}

// Parse parses a script of semicolon-terminated statements.
func Parse(src string) ([]Statement, error) {
	p := parser{syntax.New(src, "ddl")}
	var out []Statement
	for {
		tok, err := p.Peek()
		if err != nil {
			return nil, err
		}
		if tok.Kind == lexer.EOF {
			return out, nil
		}
		st, err := p.statement()
		if err == nil {
			err = p.ExpectPunct(";")
		}
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
}

// ParseQuery parses one query text as the PEMS entry points take it: a SAL
// or Serena SQL body, optionally after an EXPLAIN [ANALYZE] prefix and
// before a ';'. It returns a *Query, or an *Explain for a prefixed text.
func ParseQuery(src string) (Statement, error) {
	p := parser{syntax.New(src, "ddl")}
	st, err := p.query()
	if err == nil {
		err = p.End()
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

type parser struct{ *syntax.Parser }

func (p parser) statement() (Statement, error) {
	tok, err := p.Next()
	if err != nil {
		return nil, err
	}
	switch {
	case tok.IsKeyword("PROTOTYPE"):
		return p.prototype()
	case tok.IsKeyword("SERVICE"):
		return p.service()
	case tok.IsKeyword("EXTENDED"):
		return p.extended()
	case tok.IsKeyword("STREAM"):
		return p.relation(true)
	case tok.IsKeyword("INSERT"):
		return p.insertDelete(true)
	case tok.IsKeyword("DELETE"):
		return p.insertDelete(false)
	case tok.IsKeyword("DROP"):
		if err := p.ExpectKeyword("RELATION"); err != nil {
			return nil, err
		}
		name, err := p.Ident()
		return &Drop{Name: name}, err
	case tok.IsKeyword("REGISTER"):
		return p.registerQuery()
	case tok.IsKeyword("EXPLAIN"):
		return p.explain()
	case tok.IsKeyword("UNREGISTER"):
		if err := p.ExpectKeyword("QUERY"); err != nil {
			return nil, err
		}
		name, err := p.Ident()
		return &UnregisterQuery{Name: name}, err
	}
	return nil, p.Errf(tok, "unknown statement starting with %s", tok)
}

// query reads [EXPLAIN [ANALYZE]] body, a query given on its own. EXPLAIN
// is the prefix when a name follows it; otherwise it names a relation, as
// in SAL.
func (p parser) query() (Statement, error) {
	if p.PeekKeyword("EXPLAIN") && p.PeekSecond().Kind == lexer.Ident {
		_, _ = p.Next()
		return p.explain()
	}
	q, err := p.body()
	return &q, err
}

// explain reads [ANALYZE] body after EXPLAIN, in a script and on its own
// alike: the one place the prefix is read, for SAL and Serena SQL.
func (p parser) explain() (Statement, error) {
	st := &Explain{Analyze: p.AcceptKeyword("ANALYZE")}
	var err error
	st.Query, err = p.body()
	return st, err
}

// body reads a query body in place: Serena SQL when AtSQL says so, SAL
// otherwise. Errors inside it name the body's language and point into the
// whole text.
func (p parser) body() (Query, error) {
	start, err := p.Peek()
	if err != nil {
		return Query{}, err
	}
	var q Query
	if p.AtSQL() {
		p.Lang = "ssql"
		q.Select, err = ssql.ParseSelect(p.Parser)
	} else {
		p.Lang = "sal"
		q.Node, err = sal.Expr(p.Parser)
	}
	p.Lang = "ddl"
	if err != nil {
		return Query{}, err
	}
	q.Source = p.Since(start.Off)
	return q, nil
}

// registerQuery parses
//
//	QUERY name [ON ERROR (FAIL|SKIP|NULL)]
//	  [INTO relname [RETAIN n INSTANTS]] AS body
func (p parser) registerQuery() (Statement, error) {
	if err := p.ExpectKeyword("QUERY"); err != nil {
		return nil, err
	}
	name, err := p.Ident()
	if err != nil {
		return nil, err
	}
	st := &RegisterQuery{Name: name}
	if p.AcceptKeyword("ON") {
		if err := p.ExpectKeyword("ERROR"); err != nil {
			return nil, err
		}
		tok, err := p.Next()
		switch {
		case err != nil:
			return nil, err
		case tok.IsKeyword("FAIL"), tok.IsKeyword("SKIP"), tok.IsKeyword("NULL"):
			st.OnError = strings.ToUpper(tok.Text)
		default:
			return nil, p.Errf(tok, "expected FAIL, SKIP or NULL after ON ERROR, got %s", tok)
		}
	}
	if p.AcceptKeyword("INTO") {
		tok, err := p.Next()
		switch {
		case err != nil:
			return nil, err
		case tok.Kind != lexer.Ident:
			return nil, p.Errf(tok, "expected relation name after INTO, got %s", tok)
		case strings.HasPrefix(tok.Text, "sys$"):
			return nil, p.Errf(tok, "INTO target %q: the sys$ prefix is reserved for system relations", tok.Text)
		}
		st.Into = tok.Text
		if p.AcceptKeyword("RETAIN") {
			if st.Retain, err = p.positive("instant count after RETAIN"); err != nil {
				return nil, err
			}
			if err := p.ExpectKeyword("INSTANTS"); err != nil {
				return nil, err
			}
		}
	}
	if err := p.ExpectKeyword("AS"); err != nil {
		return nil, err
	}
	st.Query, err = p.body()
	return st, err
}

// positive reads a positive integer, the what of an error if it is not one.
func (p parser) positive(what string) (int, error) {
	tok, err := p.Next()
	if err != nil {
		return 0, err
	}
	n, convErr := strconv.Atoi(tok.Text)
	if tok.Kind != lexer.Number || convErr != nil || n < 1 {
		return 0, p.Errf(tok, "expected positive %s, got %s", what, tok)
	}
	return n, nil
}

// prototype := name '(' params? ')' ':' '(' params ')' [ACTIVE | PASSIVE]
func (p parser) prototype() (Statement, error) {
	name, err := p.Ident()
	if err != nil {
		return nil, err
	}
	ins, err := p.paramList()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct(":"); err != nil {
		return nil, err
	}
	outs, err := p.paramList()
	if err != nil {
		return nil, err
	}
	st := &CreatePrototype{Name: name, Inputs: ins, Outputs: outs, Active: p.AcceptKeyword("ACTIVE")}
	if !st.Active {
		p.AcceptKeyword("PASSIVE")
	}
	return st, nil
}

// paramList := '(' [name type {, name type}] ')'
func (p parser) paramList() ([]Param, error) {
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	var out []Param
	if p.Accept(")") {
		return out, nil
	}
	for {
		name, err := p.Ident()
		if err != nil {
			return nil, err
		}
		kind, err := p.typeName()
		if err != nil {
			return nil, err
		}
		out = append(out, Param{Name: name, Type: kind})
		if !p.Accept(",") {
			return out, p.ExpectPunct(")")
		}
	}
}

func (p parser) typeName() (value.Kind, error) {
	tok, err := p.Next()
	if err != nil {
		return 0, err
	}
	if tok.Kind != lexer.Ident {
		return 0, p.Errf(tok, "expected type name, got %s", tok)
	}
	kind, ok := value.KindFromName(tok.Text)
	if !ok {
		return 0, p.Errf(tok, "unknown type %q", tok.Text)
	}
	return kind, nil
}

// service := ref IMPLEMENTS proto {',' proto}
func (p parser) service() (Statement, error) {
	ref, err := p.Ident()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("IMPLEMENTS"); err != nil {
		return nil, err
	}
	protos, err := p.Names()
	return &CreateService{Ref: ref, Prototypes: protos}, err
}

// extended := RELATION rel | STREAM rel
func (p parser) extended() (Statement, error) {
	switch {
	case p.AcceptKeyword("RELATION"):
		return p.relation(false)
	case p.AcceptKeyword("STREAM"):
		return p.relation(true)
	}
	tok, err := p.Next()
	if err == nil {
		err = p.Errf(tok, "expected RELATION or STREAM after EXTENDED, got %s", tok)
	}
	return nil, err
}

// relation := name '(' attrDefs ')' [USING BINDING PATTERNS '(' bps ')']
//
//	[ON OVERLOAD policy [CAPACITY n]]
func (p parser) relation(isStream bool) (Statement, error) {
	name, err := p.Ident()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	st := &CreateRelation{Name: name, Stream: isStream}
	for {
		def := AttrDef{}
		if def.Name, err = p.Ident(); err != nil {
			return nil, err
		}
		if def.Type, err = p.typeName(); err != nil {
			return nil, err
		}
		def.Virtual = p.AcceptKeyword("VIRTUAL")
		st.Attrs = append(st.Attrs, def)
		if !p.Accept(",") {
			break
		}
	}
	if err := p.ExpectPunct(")"); err != nil {
		return nil, err
	}
	if p.AcceptKeyword("USING") {
		if err := p.ExpectKeyword("BINDING"); err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("PATTERNS"); err != nil {
			return nil, err
		}
		if err := p.ExpectPunct("("); err != nil {
			return nil, err
		}
		for {
			bp, err := p.bindingPattern()
			if err != nil {
				return nil, err
			}
			st.BPs = append(st.BPs, bp)
			if !p.Accept(",") {
				break
			}
		}
		if err := p.ExpectPunct(")"); err != nil {
			return nil, err
		}
	}
	if p.AcceptKeyword("ON") {
		if err := p.ExpectKeyword("OVERLOAD"); err != nil {
			return nil, err
		}
		tok, err := p.Next()
		if err != nil {
			return nil, err
		}
		if tok.Kind != lexer.Ident {
			return nil, p.Errf(tok, "expected overload policy (BLOCK, SHED_OLDEST or SHED_NEWEST), got %s", tok)
		}
		if _, err := resilience.ParseOverloadPolicy(tok.Text); err != nil {
			return nil, p.Errf(tok, "%v", err)
		}
		st.OnOverload = strings.ToUpper(tok.Text)
		if p.AcceptKeyword("CAPACITY") {
			if st.Capacity, err = p.positive("integer capacity"); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// bindingPattern := proto '[' svcAttr ']' [ '(' names? ')' ':' '(' names ')' ]
func (p parser) bindingPattern() (BPDef, error) {
	var bp BPDef
	var err error
	if bp.Proto, err = p.Ident(); err != nil {
		return bp, err
	}
	if err := p.ExpectPunct("["); err != nil {
		return bp, err
	}
	if bp.ServiceAttr, err = p.Ident(); err != nil {
		return bp, err
	}
	if err := p.ExpectPunct("]"); err != nil {
		return bp, err
	}
	if !p.PeekIs("(") {
		return bp, nil
	}
	bp.Explicit = true
	if bp.Inputs, err = p.nameList(); err != nil {
		return bp, err
	}
	if err := p.ExpectPunct(":"); err != nil {
		return bp, err
	}
	bp.Outputs, err = p.nameList()
	return bp, err
}

// nameList := '(' [names] ')'
func (p parser) nameList() ([]string, error) {
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	if p.Accept(")") {
		return nil, nil
	}
	names, err := p.Names()
	if err != nil {
		return nil, err
	}
	return names, p.ExpectPunct(")")
}

// insertDelete := (INTO|FROM) name VALUES row {',' row}
func (p parser) insertDelete(isInsert bool) (Statement, error) {
	kw := "FROM"
	if isInsert {
		kw = "INTO"
	}
	if err := p.ExpectKeyword(kw); err != nil {
		return nil, err
	}
	name, err := p.Ident()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]value.Value
	for {
		row, err := p.valueRow()
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if !p.Accept(",") {
			break
		}
	}
	if isInsert {
		return &Insert{Relation: name, Rows: rows}, nil
	}
	return &Delete{Relation: name, Rows: rows}, nil
}

// valueRow := '(' term {, term} ')', where a bare identifier denotes a
// service reference (Table 1 style: email, sensor01, …).
func (p parser) valueRow() ([]value.Value, error) {
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	var out []value.Value
	for {
		v, ref, err := p.Term()
		if err != nil {
			return nil, err
		}
		if ref != "" {
			v = value.NewService(ref)
		}
		out = append(out, v)
		if !p.Accept(",") {
			return out, p.ExpectPunct(")")
		}
	}
}
