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
//
// Parsing yields statement ASTs; execution against a catalog lives in
// internal/catalog.
package ddl

import (
	"fmt"
	"strconv"
	"strings"

	"serena/internal/lexer"
	"serena/internal/resilience"
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

// RegisterQuery declares a continuous query inside a DDL script:
//
//	REGISTER QUERY alerts AS invoke[sendMessage](…);
//	REGISTER QUERY means  ON ERROR NULL
//	                      AS SELECT location, mean(temperature) AS avg
//	                         FROM temperatures[5] GROUP BY location;
//	REGISTER QUERY rollup INTO climate RETAIN 64 INSTANTS
//	                      AS aggregate[location; mean(temperature) as avg](
//	                         window[5](temperatures));
//
// The query body (Serena Algebra Language or Serena SQL) is captured up to
// the terminating ';' and compiled by the PEMS query processor — the
// catalog itself rejects it (queries are not tables). The optional ON ERROR
// clause picks the β degradation policy (FAIL, SKIP, or NULL) applied when
// a bound service fails mid-query; omitted, the executor's continuous
// default (SKIP) applies. The optional INTO clause materializes the query's
// output as a named derived XD-Relation other queries can read; RETAIN
// bounds how many instants of its event log are kept.
type RegisterQuery struct {
	Name    string
	Source  string
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
// body (SAL or Serena SQL) is captured up to the terminating ';'.
type Explain struct {
	Source  string
	Analyze bool
}

func (*Explain) stmt() {}

// Parse parses a script of semicolon-terminated statements.
func Parse(src string) ([]Statement, error) {
	p := &parser{lx: lexer.New(src)}
	var out []Statement
	for {
		tok, err := p.lx.Peek()
		if err != nil {
			return nil, err
		}
		if tok.Kind == lexer.EOF {
			return out, nil
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
}

// ParseOne parses exactly one statement.
func ParseOne(src string) (Statement, error) {
	sts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(sts) != 1 {
		return nil, fmt.Errorf("ddl: expected exactly one statement, got %d", len(sts))
	}
	return sts[0], nil
}

type parser struct{ lx *lexer.Lexer }

func (p *parser) errf(tok lexer.Token, format string, args ...any) error {
	return fmt.Errorf("ddl: line %d:%d: %s", tok.Line, tok.Col, fmt.Sprintf(format, args...))
}

func (p *parser) next() (lexer.Token, error) { return p.lx.Next() }

func (p *parser) expectPunct(punct string) error {
	tok, err := p.next()
	if err != nil {
		return err
	}
	if !tok.Is(punct) {
		return p.errf(tok, "expected %q, got %s", punct, tok)
	}
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	tok, err := p.next()
	if err != nil {
		return err
	}
	if !tok.IsKeyword(kw) {
		return p.errf(tok, "expected %s, got %s", strings.ToUpper(kw), tok)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	tok, err := p.next()
	if err != nil {
		return "", err
	}
	if tok.Kind != lexer.Ident {
		return "", p.errf(tok, "expected identifier, got %s", tok)
	}
	return tok.Text, nil
}

func (p *parser) statement() (Statement, error) {
	tok, err := p.next()
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
		return p.drop()
	case tok.IsKeyword("REGISTER"):
		return p.registerQuery()
	case tok.IsKeyword("UNREGISTER"):
		return p.unregisterQuery()
	case tok.IsKeyword("EXPLAIN"):
		return p.explain()
	}
	return nil, p.errf(tok, "unknown statement starting with %s", tok)
}

// explain := EXPLAIN [ANALYZE] <tokens until ';'>
func (p *parser) explain() (Statement, error) {
	st := &Explain{}
	tok, err := p.lx.Peek()
	if err != nil {
		return nil, err
	}
	if tok.IsKeyword("ANALYZE") {
		_, _ = p.next()
		st.Analyze = true
	}
	src, err := p.rawUntilSemicolon()
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(src) == "" {
		return nil, fmt.Errorf("ddl: EXPLAIN: empty query body")
	}
	st.Source = src
	return st, nil
}

// registerQuery parses
//
//	QUERY name [ON ERROR (FAIL|SKIP|NULL)]
//	  [INTO relname [RETAIN n INSTANTS]] AS <tokens until ';'>
func (p *parser) registerQuery() (Statement, error) {
	if err := p.expectKeyword("QUERY"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &RegisterQuery{Name: name}
	tok, err := p.lx.Peek()
	if err != nil {
		return nil, err
	}
	if tok.IsKeyword("ON") {
		_, _ = p.next()
		if err := p.expectKeyword("ERROR"); err != nil {
			return nil, err
		}
		ptok, err := p.next()
		if err != nil {
			return nil, err
		}
		switch {
		case ptok.IsKeyword("FAIL"), ptok.IsKeyword("SKIP"), ptok.IsKeyword("NULL"):
			st.OnError = strings.ToUpper(ptok.Text)
		default:
			return nil, p.errf(ptok, "expected FAIL, SKIP or NULL after ON ERROR, got %s", ptok)
		}
		tok, err = p.lx.Peek()
		if err != nil {
			return nil, err
		}
	}
	if tok.IsKeyword("INTO") {
		_, _ = p.next()
		intoTok, err := p.next()
		if err != nil {
			return nil, err
		}
		if intoTok.Kind != lexer.Ident {
			return nil, p.errf(intoTok, "expected relation name after INTO, got %s", intoTok)
		}
		if strings.HasPrefix(intoTok.Text, "sys$") {
			return nil, p.errf(intoTok, "INTO target %q: the sys$ prefix is reserved for system relations", intoTok.Text)
		}
		st.Into = intoTok.Text
		peek, err := p.lx.Peek()
		if err != nil {
			return nil, err
		}
		if peek.IsKeyword("RETAIN") {
			_, _ = p.next()
			numTok, err := p.next()
			if err != nil {
				return nil, err
			}
			n, convErr := strconv.Atoi(numTok.Text)
			if numTok.Kind != lexer.Number || convErr != nil || n < 1 {
				return nil, p.errf(numTok, "expected positive instant count after RETAIN, got %s", numTok)
			}
			st.Retain = n
			if err := p.expectKeyword("INSTANTS"); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	src, err := p.rawUntilSemicolon()
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(src) == "" {
		return nil, fmt.Errorf("ddl: REGISTER QUERY %s: empty query body", name)
	}
	st.Source = src
	return st, nil
}

// unregisterQuery := QUERY name ';'
func (p *parser) unregisterQuery() (Statement, error) {
	if err := p.expectKeyword("QUERY"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &UnregisterQuery{Name: name}, nil
}

// rawUntilSemicolon re-renders tokens (the lexer has no raw-slice mode)
// until the terminating top-level ';'. Both SAL and Serena SQL are
// whitespace-insensitive, so token-joining round-trips them; string
// literals are re-quoted.
func (p *parser) rawUntilSemicolon() (string, error) {
	var b strings.Builder
	for {
		tok, err := p.next()
		if err != nil {
			return "", err
		}
		switch {
		case tok.Kind == lexer.EOF:
			return "", fmt.Errorf("ddl: missing ';' after query body")
		case tok.Is(";"):
			return b.String(), nil
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if tok.Kind == lexer.String {
			b.WriteString(strconv.Quote(tok.Text))
		} else {
			b.WriteString(tok.Text)
		}
	}
}

// prototype := name '(' params? ')' ':' '(' params ')' ACTIVE? ';'
func (p *parser) prototype() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins, err := p.paramList()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	outs, err := p.paramList()
	if err != nil {
		return nil, err
	}
	st := &CreatePrototype{Name: name, Inputs: ins, Outputs: outs}
	tok, err := p.next()
	if err != nil {
		return nil, err
	}
	if tok.IsKeyword("ACTIVE") {
		st.Active = true
		tok, err = p.next()
		if err != nil {
			return nil, err
		}
	} else if tok.IsKeyword("PASSIVE") {
		tok, err = p.next()
		if err != nil {
			return nil, err
		}
	}
	if !tok.Is(";") {
		return nil, p.errf(tok, "expected ';', got %s", tok)
	}
	return st, nil
}

func (p *parser) paramList() ([]Param, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var out []Param
	tok, err := p.lx.Peek()
	if err != nil {
		return nil, err
	}
	if tok.Is(")") {
		_, _ = p.next()
		return out, nil
	}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		typTok, err := p.next()
		if err != nil {
			return nil, err
		}
		if typTok.Kind != lexer.Ident {
			return nil, p.errf(typTok, "expected type name, got %s", typTok)
		}
		kind, ok := value.KindFromName(typTok.Text)
		if !ok {
			return nil, p.errf(typTok, "unknown type %q", typTok.Text)
		}
		out = append(out, Param{Name: name, Type: kind})
		tok, err := p.next()
		if err != nil {
			return nil, err
		}
		if tok.Is(")") {
			return out, nil
		}
		if !tok.Is(",") {
			return nil, p.errf(tok, "expected ',' or ')', got %s", tok)
		}
	}
}

// service := ref IMPLEMENTS proto {',' proto} ';'
func (p *parser) service() (Statement, error) {
	ref, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("IMPLEMENTS"); err != nil {
		return nil, err
	}
	var protos []string
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		protos = append(protos, name)
		tok, err := p.next()
		if err != nil {
			return nil, err
		}
		if tok.Is(";") {
			return &CreateService{Ref: ref, Prototypes: protos}, nil
		}
		if !tok.Is(",") {
			return nil, p.errf(tok, "expected ',' or ';', got %s", tok)
		}
	}
}

// extended := RELATION rel | STREAM rel
func (p *parser) extended() (Statement, error) {
	tok, err := p.next()
	if err != nil {
		return nil, err
	}
	switch {
	case tok.IsKeyword("RELATION"):
		return p.relation(false)
	case tok.IsKeyword("STREAM"):
		return p.relation(true)
	}
	return nil, p.errf(tok, "expected RELATION or STREAM after EXTENDED, got %s", tok)
}

// relation := name '(' attrDefs ')' [USING BINDING PATTERNS '(' bps ')'] ';'
func (p *parser) relation(isStream bool) (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	st := &CreateRelation{Name: name, Stream: isStream}
	for {
		aname, err := p.ident()
		if err != nil {
			return nil, err
		}
		typTok, err := p.next()
		if err != nil {
			return nil, err
		}
		if typTok.Kind != lexer.Ident {
			return nil, p.errf(typTok, "expected type name, got %s", typTok)
		}
		kind, ok := value.KindFromName(typTok.Text)
		if !ok {
			return nil, p.errf(typTok, "unknown type %q", typTok.Text)
		}
		def := AttrDef{Name: aname, Type: kind}
		tok, err := p.next()
		if err != nil {
			return nil, err
		}
		if tok.IsKeyword("VIRTUAL") {
			def.Virtual = true
			tok, err = p.next()
			if err != nil {
				return nil, err
			}
		}
		st.Attrs = append(st.Attrs, def)
		if tok.Is(")") {
			break
		}
		if !tok.Is(",") {
			return nil, p.errf(tok, "expected ',' or ')', got %s", tok)
		}
	}
	tok, err := p.next()
	if err != nil {
		return nil, err
	}
	if tok.IsKeyword("USING") {
		if err := p.expectKeyword("BINDING"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("PATTERNS"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			bp, err := p.bindingPattern()
			if err != nil {
				return nil, err
			}
			st.BPs = append(st.BPs, bp)
			tok, err := p.next()
			if err != nil {
				return nil, err
			}
			if tok.Is(")") {
				break
			}
			if !tok.Is(",") {
				return nil, p.errf(tok, "expected ',' or ')', got %s", tok)
			}
		}
		tok, err = p.next()
		if err != nil {
			return nil, err
		}
	}
	// Optional overload clause: ON OVERLOAD <policy> [CAPACITY <n>].
	if tok.IsKeyword("ON") {
		if err := p.expectKeyword("OVERLOAD"); err != nil {
			return nil, err
		}
		polTok, err := p.next()
		if err != nil {
			return nil, err
		}
		if polTok.Kind != lexer.Ident {
			return nil, p.errf(polTok, "expected overload policy (BLOCK, SHED_OLDEST or SHED_NEWEST), got %s", polTok)
		}
		if _, err := resilience.ParseOverloadPolicy(polTok.Text); err != nil {
			return nil, p.errf(polTok, "%v", err)
		}
		st.OnOverload = strings.ToUpper(polTok.Text)
		peek, err := p.lx.Peek()
		if err != nil {
			return nil, err
		}
		if peek.IsKeyword("CAPACITY") {
			if _, err := p.next(); err != nil {
				return nil, err
			}
			numTok, err := p.next()
			if err != nil {
				return nil, err
			}
			n, convErr := strconv.Atoi(numTok.Text)
			if numTok.Kind != lexer.Number || convErr != nil || n < 1 {
				return nil, p.errf(numTok, "expected positive integer capacity, got %s", numTok)
			}
			st.Capacity = n
		}
		tok, err = p.next()
		if err != nil {
			return nil, err
		}
	}
	if !tok.Is(";") {
		return nil, p.errf(tok, "expected USING, ON OVERLOAD or ';', got %s", tok)
	}
	return st, nil
}

// bindingPattern := proto '[' svcAttr ']' [ '(' names? ')' ':' '(' names ')' ]
func (p *parser) bindingPattern() (BPDef, error) {
	proto, err := p.ident()
	if err != nil {
		return BPDef{}, err
	}
	if err := p.expectPunct("["); err != nil {
		return BPDef{}, err
	}
	svc, err := p.ident()
	if err != nil {
		return BPDef{}, err
	}
	if err := p.expectPunct("]"); err != nil {
		return BPDef{}, err
	}
	bp := BPDef{Proto: proto, ServiceAttr: svc}
	tok, err := p.lx.Peek()
	if err != nil {
		return BPDef{}, err
	}
	if !tok.Is("(") {
		return bp, nil
	}
	bp.Explicit = true
	bp.Inputs, err = p.nameList()
	if err != nil {
		return BPDef{}, err
	}
	if err := p.expectPunct(":"); err != nil {
		return BPDef{}, err
	}
	bp.Outputs, err = p.nameList()
	if err != nil {
		return BPDef{}, err
	}
	return bp, nil
}

func (p *parser) nameList() ([]string, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var out []string
	tok, err := p.lx.Peek()
	if err != nil {
		return nil, err
	}
	if tok.Is(")") {
		_, _ = p.next()
		return out, nil
	}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, name)
		tok, err := p.next()
		if err != nil {
			return nil, err
		}
		if tok.Is(")") {
			return out, nil
		}
		if !tok.Is(",") {
			return nil, p.errf(tok, "expected ',' or ')', got %s", tok)
		}
	}
}

// insertDelete := (INTO|FROM) name VALUES row {',' row} ';'
func (p *parser) insertDelete(isInsert bool) (Statement, error) {
	kw := "FROM"
	if isInsert {
		kw = "INTO"
	}
	if err := p.expectKeyword(kw); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]value.Value
	for {
		row, err := p.valueRow()
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		tok, err := p.next()
		if err != nil {
			return nil, err
		}
		if tok.Is(";") {
			break
		}
		if !tok.Is(",") {
			return nil, p.errf(tok, "expected ',' or ';', got %s", tok)
		}
	}
	if isInsert {
		return &Insert{Relation: name, Rows: rows}, nil
	}
	return &Delete{Relation: name, Rows: rows}, nil
}

func (p *parser) valueRow() ([]value.Value, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var out []value.Value
	for {
		tok, err := p.next()
		if err != nil {
			return nil, err
		}
		var v value.Value
		switch {
		case tok.Kind == lexer.String:
			v = value.NewString(tok.Text)
		case tok.Kind == lexer.Number:
			v, err = value.Parse(tok.Text)
			if err != nil {
				return nil, p.errf(tok, "%v", err)
			}
		case tok.IsKeyword("true"):
			v = value.NewBool(true)
		case tok.IsKeyword("false"):
			v = value.NewBool(false)
		case tok.IsKeyword("null") || tok.Is("*"):
			v = value.NewNull()
		case tok.Kind == lexer.Ident:
			// Bare identifiers denote service references (Table 1 style:
			// email, sensor01, …).
			v = value.NewService(tok.Text)
		default:
			return nil, p.errf(tok, "expected literal, got %s", tok)
		}
		out = append(out, v)
		tok, err = p.next()
		if err != nil {
			return nil, err
		}
		if tok.Is(")") {
			return out, nil
		}
		if !tok.Is(",") {
			return nil, p.errf(tok, "expected ',' or ')', got %s", tok)
		}
	}
}

// drop := RELATION name ';'
func (p *parser) drop() (Statement, error) {
	if err := p.expectKeyword("RELATION"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &Drop{Name: name}, nil
}
