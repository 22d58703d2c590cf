// Package sal parses the Serena Algebra Language — the textual form of
// Serena algebra expressions used to register queries with the PEMS Query
// Processor (Gripay et al., EDBT 2010, Section 5.1). The syntax matches the
// String() rendering of internal/query nodes, so parsing and printing
// round-trip:
//
//	expr     := ident
//	          | project[attr, …](expr)
//	          | select[formula](expr)
//	          | rename[old -> new](expr)
//	          | assign[attr := term](expr)
//	          | invoke[proto](expr) | invoke[proto@svcAttr](expr)
//	          | window[period](expr)
//	          | stream[kind](expr)
//	          | aggregate[aggregate, … [by attr, …]](expr)
//	          | join(expr, expr) | union(expr, expr)
//	          | intersect(expr, expr) | diff(expr, expr)
//
// Only the operators are read here: formula, term, aggregate, period, kind
// and the invocation are the grammar Serena SQL shares (internal/syntax).
// Type-checking happens at planning time against the environment.
package sal

import (
	"serena/internal/algebra"
	"serena/internal/lexer"
	"serena/internal/query"
	"serena/internal/syntax"
	"serena/internal/value"
)

// Parse parses one algebra expression, optionally followed by ';'.
func Parse(src string) (query.Node, error) {
	p := syntax.New(src, "sal")
	n, err := Expr(p)
	if err == nil {
		err = p.End()
	}
	if err != nil {
		return nil, err
	}
	return n, nil
}

// Expr reads one algebra expression from p, leaving what follows it unread.
func Expr(p *syntax.Parser) (query.Node, error) { return parser{p}.expr() }

type parser struct{ *syntax.Parser }

func (p parser) expr() (query.Node, error) {
	tok, err := p.Next()
	if err != nil {
		return nil, err
	}
	if tok.Kind != lexer.Ident {
		return nil, p.Errf(tok, "expected operator or relation name, got %s", tok)
	}
	switch {
	case !p.PeekIs("[") && !p.PeekIs("("):
		return query.NewBase(tok.Text), nil
	case tok.IsKeyword("join"), tok.IsKeyword("union"), tok.IsKeyword("intersect"), tok.IsKeyword("diff"):
		return p.binary(tok)
	}
	if err := p.ExpectPunct("["); err != nil {
		return nil, err
	}
	// build wraps the operand expression once it is read.
	var build func(query.Node) query.Node
	switch {
	case tok.IsKeyword("project"):
		var attrs []string
		attrs, err = p.Names()
		build = func(c query.Node) query.Node { return query.NewProject(c, attrs...) }
	case tok.IsKeyword("select"):
		var f algebra.Formula
		f, err = p.Formula()
		build = func(c query.Node) query.Node { return query.NewSelect(c, f) }
	case tok.IsKeyword("rename"):
		var from, to string
		if from, err = p.Ident(); err == nil {
			if err = p.ExpectPunct("->"); err == nil {
				to, err = p.Ident()
			}
		}
		build = func(c query.Node) query.Node { return query.NewRename(c, from, to) }
	case tok.IsKeyword("assign"):
		var attr, src string
		var v value.Value
		if attr, err = p.Ident(); err == nil {
			if err = p.ExpectPunct(":="); err == nil {
				v, src, err = p.Term()
			}
		}
		build = func(c query.Node) query.Node {
			if src != "" {
				return query.NewAssignAttr(c, attr, src)
			}
			return query.NewAssignConst(c, attr, v)
		}
	case tok.IsKeyword("invoke"):
		var proto, svcAttr string
		proto, svcAttr, err = p.Invocation()
		build = func(c query.Node) query.Node { return query.NewInvoke(c, proto, svcAttr) }
	case tok.IsKeyword("window"):
		var period int64
		period, err = p.Period()
		build = func(c query.Node) query.Node { return query.NewWindow(c, period) }
	case tok.IsKeyword("stream"):
		var kind query.StreamKind
		kind, err = p.StreamKind()
		build = func(c query.Node) query.Node { return query.NewStream(c, kind) }
	case tok.IsKeyword("aggregate"):
		var aggs []algebra.AggSpec
		var by []string
		aggs, by, err = p.aggregates()
		build = func(c query.Node) query.Node { return query.NewAggregate(c, by, aggs) }
	default:
		return nil, p.Errf(tok, "unknown operator %q", tok.Text)
	}
	if err == nil {
		err = p.ExpectPunct("]")
	}
	if err != nil {
		return nil, err
	}
	child, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	return build(child), nil
}

// aggregates reads aggregate, … [by attr, …].
func (p parser) aggregates() (aggs []algebra.AggSpec, by []string, err error) {
	for {
		fnTok, err := p.Next()
		if err != nil {
			return nil, nil, err
		}
		spec, err := p.Aggregate(fnTok)
		if err != nil {
			return nil, nil, err
		}
		aggs = append(aggs, spec)
		if !p.Accept(",") {
			break
		}
	}
	if p.AcceptKeyword("by") {
		by, err = p.Names()
	}
	return aggs, by, err
}

// binary reads (expr, expr) after the operator op.
func (p parser) binary(op lexer.Token) (query.Node, error) {
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	left, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct(","); err != nil {
		return nil, err
	}
	right, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct(")"); err != nil {
		return nil, err
	}
	switch {
	case op.IsKeyword("join"):
		return query.NewJoin(left, right), nil
	case op.IsKeyword("union"):
		return query.NewUnion(left, right), nil
	case op.IsKeyword("intersect"):
		return query.NewIntersect(left, right), nil
	}
	return query.NewDiff(left, right), nil
}

func (p parser) parenExpr() (query.Node, error) {
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	n, err := p.expr()
	if err != nil {
		return nil, err
	}
	return n, p.ExpectPunct(")")
}
