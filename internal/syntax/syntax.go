// Package syntax is the grammar the Serena query languages share. The
// Serena Algebra Language (internal/sal) and Serena SQL (internal/ssql)
// spell one algebra two ways, so everything below their operators and
// clauses is read here, once, with one behaviour:
//
//	formula   := conj { or conj }
//	conj      := unary { and unary }
//	unary     := not ( formula ) | ( formula ) | true | term op term
//	op        := = | == | != | <> | < | <= | > | >= | contains
//	term      := literal | ident
//	literal   := string | number | true | false | null | *
//	aggregate := func ( ident | * ) [as ident]
//	period    := positive integer
//	kind      := insertion | deletion | heartbeat
//	invoke    := proto [@ ident]
//
// Keywords are case-insensitive. Parser also carries the token helpers the
// two languages and the DDL (internal/ddl) read with, and AtSQL, the one
// test that tells a SQL text from a SAL one.
package syntax

import (
	"fmt"
	"strings"

	"serena/internal/algebra"
	"serena/internal/lexer"
	"serena/internal/query"
	"serena/internal/value"
)

// Parser reads tokens from one source text.
type Parser struct {
	lx  lexer.Lexer
	src string
	end int // byte offset after the last token read
	// Lang names the language being read in error messages: "sal",
	// "ssql" or "ddl".
	Lang string
}

// New returns a parser over src whose errors name lang.
func New(src, lang string) *Parser {
	return &Parser{lx: *lexer.New(src), src: src, Lang: lang}
}

// Errf returns an error at tok's position.
func (p *Parser) Errf(tok lexer.Token, format string, args ...any) error {
	return fmt.Errorf("%s: line %d:%d: %s", p.Lang, tok.Line, tok.Col, fmt.Sprintf(format, args...))
}

// Next consumes and returns the next token.
func (p *Parser) Next() (lexer.Token, error) {
	tok, err := p.lx.Next()
	if err == nil {
		p.end = tok.End
	}
	return tok, err
}

// Peek returns the next token without consuming it.
func (p *Parser) Peek() (lexer.Token, error) { return p.lx.Peek() }

// Since returns the source text from byte offset off to the end of the
// last token read.
func (p *Parser) Since(off int) string { return p.src[off:p.end] }

// PeekIs reports whether the next token is the punctuation punct. A
// lexical error reads as false: the next Next reports it.
func (p *Parser) PeekIs(punct string) bool {
	tok, err := p.lx.Peek()
	return err == nil && tok.Is(punct)
}

// PeekKeyword reports whether the next token is the keyword kw.
func (p *Parser) PeekKeyword(kw string) bool {
	tok, err := p.lx.Peek()
	return err == nil && tok.IsKeyword(kw)
}

// Accept consumes the next token if it is the punctuation punct.
func (p *Parser) Accept(punct string) bool {
	if !p.PeekIs(punct) {
		return false
	}
	_, _ = p.Next()
	return true
}

// AcceptKeyword consumes the next token if it is the keyword kw.
func (p *Parser) AcceptKeyword(kw string) bool {
	if !p.PeekKeyword(kw) {
		return false
	}
	_, _ = p.Next()
	return true
}

// ExpectPunct consumes the punctuation punct.
func (p *Parser) ExpectPunct(punct string) error {
	tok, err := p.Next()
	if err == nil && !tok.Is(punct) {
		err = p.Errf(tok, "expected %q, got %s", punct, tok)
	}
	return err
}

// ExpectKeyword consumes the keyword kw.
func (p *Parser) ExpectKeyword(kw string) error {
	tok, err := p.Next()
	if err == nil && !tok.IsKeyword(kw) {
		err = p.Errf(tok, "expected %s, got %s", strings.ToUpper(kw), tok)
	}
	return err
}

// Ident consumes an identifier and returns its text.
func (p *Parser) Ident() (string, error) {
	tok, err := p.Next()
	if err == nil && tok.Kind != lexer.Ident {
		err = p.Errf(tok, "expected identifier, got %s", tok)
	}
	return tok.Text, err
}

// Names reads ident { , ident }.
func (p *Parser) Names() ([]string, error) {
	var names []string
	for {
		name, err := p.Ident()
		if err != nil {
			return nil, err
		}
		names = append(names, name)
		if !p.Accept(",") {
			return names, nil
		}
	}
}

// End reads the end of a query text: an optional ';', then the end of
// input.
func (p *Parser) End() error {
	p.Accept(";")
	tok, err := p.Next()
	if err == nil && tok.Kind != lexer.EOF {
		err = p.Errf(tok, "trailing input %s", tok)
	}
	return err
}

// PeekSecond returns the token after the next one without consuming
// either. A lexical error reads as the end of input: Next reports it.
func (p *Parser) PeekSecond() lexer.Token {
	ahead := p.lx
	if _, err := ahead.Next(); err != nil {
		return lexer.Token{}
	}
	tok, err := ahead.Next()
	if err != nil {
		return lexer.Token{}
	}
	return tok
}

// AtSQL reports whether the text ahead is Serena SQL rather than SAL: the
// keyword SELECT followed by '*' or a name. The SAL operator of the same
// name is followed by '['.
func (p *Parser) AtSQL() bool {
	if !p.PeekKeyword("SELECT") {
		return false
	}
	tok := p.PeekSecond()
	return tok.Is("*") || tok.Kind == lexer.Ident
}

// Formula reads formula := conj { or conj }; and binds tighter than or.
func (p *Parser) Formula() (algebra.Formula, error) {
	terms, err := p.connected("or", p.conj)
	switch {
	case err != nil:
		return nil, err
	case len(terms) == 1:
		return terms[0], nil
	}
	return algebra.NewOr(terms...), nil
}

func (p *Parser) conj() (algebra.Formula, error) {
	terms, err := p.connected("and", p.unary)
	switch {
	case err != nil:
		return nil, err
	case len(terms) == 1:
		return terms[0], nil
	}
	return algebra.NewAnd(terms...), nil
}

// connected reads term { kw term }.
func (p *Parser) connected(kw string, term func() (algebra.Formula, error)) ([]algebra.Formula, error) {
	var terms []algebra.Formula
	for {
		f, err := term()
		if err != nil {
			return nil, err
		}
		terms = append(terms, f)
		if !p.AcceptKeyword(kw) {
			return terms, nil
		}
	}
}

// unary reads not ( formula ) | ( formula ) | true | term op term. A bare
// true is the constant formula, as algebra.True renders; true before an
// operator is a constant term.
func (p *Parser) unary() (algebra.Formula, error) {
	if p.AcceptKeyword("not") {
		f, err := p.parenFormula()
		if err != nil {
			return nil, err
		}
		return algebra.NewNot(f), nil
	}
	if p.PeekIs("(") {
		return p.parenFormula()
	}
	bareTrue := p.PeekKeyword("true")
	left, err := p.operand()
	if err != nil {
		return nil, err
	}
	opTok, err := p.Peek()
	if err != nil {
		return nil, err
	}
	op, ok := algebra.CmpOpFromString(opTok.Text)
	if !ok || (opTok.Kind != lexer.Punct && opTok.Kind != lexer.Ident) {
		if bareTrue {
			return algebra.True{}, nil
		}
		return nil, p.Errf(opTok, "expected comparison operator, got %s", opTok)
	}
	_, _ = p.Next()
	right, err := p.operand()
	if err != nil {
		return nil, err
	}
	return algebra.Compare(left, op, right), nil
}

func (p *Parser) parenFormula() (algebra.Formula, error) {
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	f, err := p.Formula()
	if err != nil {
		return nil, err
	}
	return f, p.ExpectPunct(")")
}

func (p *Parser) operand() (algebra.Operand, error) {
	v, name, err := p.Term()
	if name != "" {
		return algebra.Attr(name), err
	}
	return algebra.Const(v), err
}

// Term reads term := literal | ident: the value of a literal, or the name
// of an identifier that is not one of the literal keywords true, false and
// null.
func (p *Parser) Term() (v value.Value, name string, err error) {
	tok, err := p.Next()
	switch {
	case err != nil:
	case tok.Kind == lexer.String:
		v = value.NewString(tok.Text)
	case tok.Kind == lexer.Number:
		if v, err = value.Parse(tok.Text); err != nil {
			err = p.Errf(tok, "%v", err)
		}
	case tok.IsKeyword("true"), tok.IsKeyword("false"):
		v = value.NewBool(tok.IsKeyword("true"))
	case tok.IsKeyword("null"), tok.Is("*"):
		v = value.NewNull()
	case tok.Kind == lexer.Ident:
		name = tok.Text
	default:
		err = p.Errf(tok, "expected literal, got %s", tok)
	}
	return v, name, err
}

// Aggregate reads the rest of an aggregate call whose function name fnTok
// has been read: ( ident | * ) [as ident]. Without as, the output column is
// named after the function, or function_attribute.
func (p *Parser) Aggregate(fnTok lexer.Token) (algebra.AggSpec, error) {
	if fnTok.Kind != lexer.Ident {
		return algebra.AggSpec{}, p.Errf(fnTok, "expected aggregate function, got %s", fnTok)
	}
	fn, ok := algebra.AggFuncFromString(strings.ToLower(fnTok.Text))
	if !ok {
		return algebra.AggSpec{}, p.Errf(fnTok, "unknown aggregate function %q", fnTok.Text)
	}
	if err := p.ExpectPunct("("); err != nil {
		return algebra.AggSpec{}, err
	}
	spec := algebra.AggSpec{Func: fn}
	tok, err := p.Next()
	switch {
	case err != nil:
		return algebra.AggSpec{}, err
	case tok.Is("*") && fn != algebra.Count:
		return algebra.AggSpec{}, p.Errf(tok, "only count may use '*'")
	case tok.Is("*"):
	case tok.Kind == lexer.Ident:
		spec.Attr = tok.Text
	default:
		return algebra.AggSpec{}, p.Errf(tok, "expected attribute or '*', got %s", tok)
	}
	if err := p.ExpectPunct(")"); err != nil {
		return algebra.AggSpec{}, err
	}
	if p.AcceptKeyword("as") {
		spec.As, err = p.Ident()
		return spec, err
	}
	spec.As = fn.String()
	if spec.Attr != "" {
		spec.As += "_" + spec.Attr
	}
	return spec, nil
}

// Period reads a window period: a positive integer.
func (p *Parser) Period() (int64, error) {
	tok, err := p.Next()
	if err != nil {
		return 0, err
	}
	if tok.Kind == lexer.Number {
		if v, err := value.Parse(tok.Text); err == nil && v.Kind() == value.Int && v.Int() >= 1 {
			return v.Int(), nil
		}
	}
	return 0, p.Errf(tok, "window period must be a positive integer, got %s", tok)
}

// StreamKind reads kind := insertion | deletion | heartbeat.
func (p *Parser) StreamKind() (query.StreamKind, error) {
	tok, err := p.Next()
	if err != nil {
		return 0, err
	}
	kind, ok := query.StreamKindFromString(strings.ToLower(tok.Text))
	if tok.Kind != lexer.Ident || !ok {
		return 0, p.Errf(tok, "unknown streaming type %s (want insertion, deletion or heartbeat)", tok)
	}
	return kind, nil
}

// Invocation reads invoke := proto [@ ident]: a prototype, and the service
// attribute that qualifies it ("" when absent).
func (p *Parser) Invocation() (proto, svcAttr string, err error) {
	if proto, err = p.Ident(); err != nil || !p.Accept("@") {
		return proto, "", err
	}
	svcAttr, err = p.Ident()
	return proto, svcAttr, err
}
