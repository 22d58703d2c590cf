// Package ssql implements Serena SQL — the SQL-like surface language the
// paper names as part of the framework ("the definition of a SQL-like
// language based on the Serena algebra, namely the Serena SQL", Section
// 1.1) without presenting it. The dialect here compiles declarative
// SELECT statements onto the Serena algebra of internal/query:
//
//	SELECT photo
//	FROM cameras
//	USING checkPhoto, takePhoto
//	WHERE area = "office" AND quality >= 5;
//
//	SELECT location, mean(temperature) AS avgtemp
//	FROM temperatures[1]
//	GROUP BY location;
//
//	SELECT * FROM contacts NATURAL JOIN surveillance
//	SET text := "Alert!"
//	USING sendMessage
//	WHERE location = "office"
//	STREAMING insertion;
//
// Grammar (formula, term, aggregate, period, kind and invoke are the
// grammar SAL shares, read by internal/syntax):
//
//	query   := SELECT items FROM source {NATURAL JOIN source}
//	           {SET assign {, assign} | USING invoke {, invoke}
//	            | WHERE formula | GROUP BY idents | STREAMING kind} [;]
//	items   := '*' | item {, item}
//	item    := ident | aggregate
//	source  := ident [ '[' period ']' ]            -- window over a stream
//	assign  := ident (':=' | '=') term
//
// Semantics: WHERE is declarative — each top-level conjunct is applied at
// the earliest point of the plan where it is legal (all referenced
// attributes real), i.e. before invocations when it only touches base
// attributes. A filter on contacts therefore restricts WHO gets messaged
// (the paper's Q1, not Q1'): the action set contains only matching tuples.
// Conjuncts over invocation outputs apply right after the invocation that
// realizes them. SET assignments happen before USING invocations, USING
// invocations in written order.
package ssql

import (
	"fmt"
	"slices"

	"serena/internal/algebra"
	"serena/internal/lexer"
	"serena/internal/query"
	"serena/internal/syntax"
	"serena/internal/value"
)

// Compile parses src and binds it to the environment (schemas are needed
// to place WHERE conjuncts and validate attributes).
func Compile(src string, env query.Environment) (query.Node, error) {
	p := syntax.New(src, "ssql")
	s, err := ParseSelect(p)
	if err == nil {
		err = p.End()
	}
	if err != nil {
		return nil, err
	}
	return s.Bind(env)
}

// Select is a parsed SELECT statement, not yet bound to an environment.
type Select struct {
	star      bool
	items     []selectItem
	sources   []sourceRef
	assigns   []assignClause
	invokes   []invokeClause
	where     []algebra.Formula // top-level conjuncts
	groupBy   []string
	streaming *query.StreamKind
}

type selectItem struct {
	attr string           // plain attribute, or
	agg  *algebra.AggSpec // aggregate
}

type sourceRef struct {
	name   string
	window int64 // 0 = no window
}

type assignClause struct {
	attr    string
	src     string      // attribute copy, or
	literal value.Value // constant
}

type invokeClause struct {
	proto   string
	svcAttr string
}

// ParseSelect reads one SELECT statement from p, up to a ';' or the end of
// input, which it leaves unread.
func ParseSelect(p *syntax.Parser) (*Select, error) {
	s := &Select{}
	if err := p.ExpectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if err := s.selectList(p); err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := s.fromClause(p); err != nil {
		return nil, err
	}
	for {
		var err error
		switch {
		case p.AcceptKeyword("SET"):
			err = s.setClause(p)
		case p.AcceptKeyword("USING"):
			err = s.usingClause(p)
		case p.AcceptKeyword("WHERE"):
			var f algebra.Formula
			f, err = p.Formula()
			s.where = splitConjuncts(f)
		case p.AcceptKeyword("GROUP"):
			if err = p.ExpectKeyword("BY"); err == nil {
				s.groupBy, err = p.Names()
			}
		case p.AcceptKeyword("STREAMING"):
			var kind query.StreamKind
			kind, err = p.StreamKind()
			s.streaming = &kind
		default:
			tok, err := p.Peek()
			switch {
			case err != nil:
				return nil, err
			case tok.Is(";") || tok.Kind == lexer.EOF:
				return s, nil
			}
			return nil, p.Errf(tok, "unexpected %s", tok)
		}
		if err != nil {
			return nil, err
		}
	}
}

func (s *Select) selectList(p *syntax.Parser) error {
	if p.Accept("*") {
		s.star = true
		return nil
	}
	for {
		tok, err := p.Next()
		if err != nil {
			return err
		}
		if tok.Kind != lexer.Ident {
			return p.Errf(tok, "expected attribute or aggregate, got %s", tok)
		}
		item := selectItem{attr: tok.Text}
		if p.PeekIs("(") {
			spec, err := p.Aggregate(tok)
			if err != nil {
				return err
			}
			item = selectItem{agg: &spec}
		}
		s.items = append(s.items, item)
		if !p.Accept(",") {
			return nil
		}
	}
}

func (s *Select) fromClause(p *syntax.Parser) error {
	for {
		name, err := p.Ident()
		if err != nil {
			return err
		}
		src := sourceRef{name: name}
		if p.Accept("[") {
			if src.window, err = p.Period(); err == nil {
				err = p.ExpectPunct("]")
			}
			if err != nil {
				return err
			}
		}
		s.sources = append(s.sources, src)
		if !p.AcceptKeyword("NATURAL") {
			return nil
		}
		if err := p.ExpectKeyword("JOIN"); err != nil {
			return err
		}
	}
}

func (s *Select) setClause(p *syntax.Parser) error {
	for {
		attr, err := p.Ident()
		if err != nil {
			return err
		}
		if !p.Accept(":=") && !p.Accept("=") {
			tok, err := p.Next()
			if err == nil {
				err = p.Errf(tok, "expected ':=' or '=', got %s", tok)
			}
			return err
		}
		a := assignClause{attr: attr}
		if a.literal, a.src, err = p.Term(); err != nil {
			return err
		}
		s.assigns = append(s.assigns, a)
		if !p.Accept(",") {
			return nil
		}
	}
}

func (s *Select) usingClause(p *syntax.Parser) error {
	for {
		proto, svcAttr, err := p.Invocation()
		if err != nil {
			return err
		}
		s.invokes = append(s.invokes, invokeClause{proto: proto, svcAttr: svcAttr})
		if !p.Accept(",") {
			return nil
		}
	}
}

// splitConjuncts flattens top-level ANDs into independent conjuncts.
func splitConjuncts(f algebra.Formula) []algebra.Formula {
	if and, ok := f.(*algebra.And); ok {
		var out []algebra.Formula
		for _, t := range and.Terms {
			out = append(out, splitConjuncts(t)...)
		}
		return out
	}
	return []algebra.Formula{f}
}

// ---------------------------------------------------------------------------
// Compilation.

// Bind compiles the statement onto the algebra over env's schemas, which
// place each WHERE conjunct and validate every attribute.
func (s *Select) Bind(env query.Environment) (query.Node, error) {
	if len(s.sources) == 0 {
		return nil, fmt.Errorf("ssql: no FROM source")
	}
	// Sources and joins.
	var node query.Node
	for i, src := range s.sources {
		var n query.Node = query.NewBase(src.name)
		if src.window > 0 {
			n = query.NewWindow(n, src.window)
		}
		if i == 0 {
			node = n
		} else {
			node = query.NewJoin(node, n)
		}
	}
	pending := append([]algebra.Formula(nil), s.where...)
	var err error
	if node, pending, err = applyReady(node, pending, env); err != nil {
		return nil, err
	}
	// SET assignments.
	for _, a := range s.assigns {
		if a.src != "" {
			node = query.NewAssignAttr(node, a.attr, a.src)
		} else {
			node = query.NewAssignConst(node, a.attr, a.literal)
		}
		if node, pending, err = applyReady(node, pending, env); err != nil {
			return nil, err
		}
	}
	// USING invocations, each followed by newly-enabled conjuncts.
	for _, inv := range s.invokes {
		node = query.NewInvoke(node, inv.proto, inv.svcAttr)
		if node, pending, err = applyReady(node, pending, env); err != nil {
			return nil, err
		}
	}
	if len(pending) > 0 {
		// Conjunct never became valid: surface its planning error.
		sch, serr := node.ResultSchema(env)
		if serr != nil {
			return nil, fmt.Errorf("ssql: %w", serr)
		}
		if verr := pending[0].Validate(sch); verr != nil {
			return nil, fmt.Errorf("ssql: WHERE condition %q cannot be applied: %w", pending[0], verr)
		}
		return nil, fmt.Errorf("ssql: WHERE condition %q cannot be applied", pending[0])
	}
	// SELECT list: aggregation or projection.
	var aggs []algebra.AggSpec
	var plain []string
	for _, it := range s.items {
		if it.agg != nil {
			aggs = append(aggs, *it.agg)
		} else {
			plain = append(plain, it.attr)
		}
	}
	switch {
	case len(aggs) > 0:
		groupBy := s.groupBy
		if len(groupBy) == 0 {
			groupBy = plain // SELECT location, mean(x) … implies grouping
		} else {
			for _, a := range plain {
				if !slices.Contains(groupBy, a) {
					return nil, fmt.Errorf("ssql: selected attribute %q is neither aggregated nor in GROUP BY", a)
				}
			}
		}
		node = query.NewAggregate(node, groupBy, aggs)
	case len(s.groupBy) > 0:
		return nil, fmt.Errorf("ssql: GROUP BY requires at least one aggregate in the SELECT list")
	case s.star:
		// keep full schema
	default:
		node = query.NewProject(node, plain...)
	}
	if s.streaming != nil {
		node = query.NewStream(node, *s.streaming)
	}
	// Final validation.
	if _, err := node.ResultSchema(env); err != nil {
		return nil, fmt.Errorf("ssql: %w", err)
	}
	return node, nil
}

// applyReady attaches every pending conjunct that is valid over the current
// node's schema.
func applyReady(node query.Node, pending []algebra.Formula, env query.Environment) (query.Node, []algebra.Formula, error) {
	sch, err := node.ResultSchema(env)
	if err != nil {
		return nil, nil, fmt.Errorf("ssql: %w", err)
	}
	var left []algebra.Formula
	for _, f := range pending {
		if f.Validate(sch) == nil {
			node = query.NewSelect(node, f)
		} else {
			left = append(left, f)
		}
	}
	return node, left, nil
}
