// Package lexer is the tokenizer of the one query front end: the Serena
// DDL (internal/ddl), the Serena Algebra Language (internal/sal) and Serena
// SQL (internal/ssql) all read their text through it, by way of the shared
// parser in internal/syntax. The three languages use SQL-flavoured lexical
// conventions: case-insensitive keywords, single- or double-quoted string
// literals, `--` line comments and `/* */` block comments.
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind classifies tokens.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Number
	String
	Punct // single/multi-char punctuation: ( ) [ ] , ; : := -> @ = != <> < <= > >= *
)

// Token is one lexeme with its source position: the byte offsets of its
// first byte and of the byte after its last, and its 1-based line and
// column.
type Token struct {
	Kind     Kind
	Text     string // raw text; for String, the decoded body
	Off, End int
	Line     int
	Col      int
}

// Is reports whether the token is the given punctuation.
func (t Token) Is(p string) bool { return t.Kind == Punct && t.Text == p }

// IsKeyword reports a case-insensitive identifier match.
func (t Token) IsKeyword(kw string) bool {
	return t.Kind == Ident && strings.EqualFold(t.Text, kw)
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "end of input"
	case String:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// Lexer tokenizes an input string.
type Lexer struct {
	src     string
	pos     int
	line    int
	col     int
	peeked  Token
	hasPeek bool
}

// New returns a lexer over src.
func New(src string) *Lexer { return &Lexer{src: src, line: 1, col: 1} }

// multi-char punctuation, longest first.
var multiPunct = []string{":=", "->", "!=", "<>", "<=", ">=", "=="}

// Peek returns the next token without consuming it.
func (l *Lexer) Peek() (Token, error) {
	if !l.hasPeek {
		t, err := l.lex()
		if err != nil {
			return Token{}, err
		}
		l.peeked, l.hasPeek = t, true
	}
	return l.peeked, nil
}

// Next consumes and returns the next token.
func (l *Lexer) Next() (Token, error) {
	if l.hasPeek {
		l.hasPeek = false
		return l.peeked, nil
	}
	return l.lex()
}

func (l *Lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("line %d:%d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *Lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if l.pos < len(l.src) && l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case strings.HasPrefix(l.src[l.pos:], "--"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return l.errorf("unterminated block comment")
			}
			l.advance(end + 4)
		default:
			return nil
		}
	}
	return nil
}

// lex reads the next token, stamping it with its position.
func (l *Lexer) lex() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Off: l.pos, Line: l.line, Col: l.col}
	var err error
	tok.Kind, tok.Text, err = l.scan()
	tok.End = l.pos
	return tok, err
}

// scan consumes the token at l.pos, which is not space or a comment.
func (l *Lexer) scan() (Kind, string, error) {
	if l.pos >= len(l.src) {
		return EOF, "", nil
	}
	c := l.src[l.pos]

	// String literals.
	if c == '\'' || c == '"' {
		var b strings.Builder
		for i := l.pos + 1; i < len(l.src); i++ {
			switch {
			case l.src[i] == '\\' && i+1 < len(l.src):
				i++
				switch e := l.src[i]; e {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				default: // \\, \' and \" and any other escaped byte stand for themselves
					b.WriteByte(e)
				}
			case l.src[i] == c:
				l.advance(i + 1 - l.pos)
				return String, b.String(), nil
			default:
				b.WriteByte(l.src[i])
			}
		}
		return EOF, "", l.errorf("unterminated string literal")
	}

	// Hex blob literals: 0x… (consumed as a Number token; value.Parse turns
	// them into BLOBs).
	if c == '0' && l.pos+1 < len(l.src) && (l.src[l.pos+1] == 'x' || l.src[l.pos+1] == 'X') {
		i := l.pos + 2
		for i < len(l.src) && isHexDigit(l.src[i]) {
			i++
		}
		if i > l.pos+2 {
			return Number, l.take(i), nil
		}
	}

	// Numbers (integers, decimals, exponents; optional leading minus is
	// handled by parsers as unary punctuation when ambiguous, so numbers
	// here start with a digit or a '-' directly followed by a digit).
	if isDigit(c) || (c == '-' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])) {
		i := l.pos + 1
		for i < len(l.src) && (isDigit(l.src[i]) || l.src[i] == '.' ||
			l.src[i] == 'e' || l.src[i] == 'E' ||
			((l.src[i] == '+' || l.src[i] == '-') && (l.src[i-1] == 'e' || l.src[i-1] == 'E'))) {
			i++
		}
		return Number, l.take(i), nil
	}

	// Identifiers and keywords (full UTF-8).
	if r, size := utf8.DecodeRuneInString(l.src[l.pos:]); isIdentStart(r) {
		i := l.pos + size
		for i < len(l.src) {
			r, size := utf8.DecodeRuneInString(l.src[i:])
			if !isIdentPart(r) {
				break
			}
			i += size
		}
		return Ident, l.take(i), nil
	}

	// Multi-char punctuation.
	for _, p := range multiPunct {
		if strings.HasPrefix(l.src[l.pos:], p) {
			return Punct, l.take(l.pos + len(p)), nil
		}
	}

	// Single-char punctuation.
	switch c {
	case '(', ')', '[', ']', ',', ';', ':', '@', '=', '<', '>', '*', '-', '.':
		return Punct, l.take(l.pos + 1), nil
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return EOF, "", l.errorf("unexpected character %q", r)
}

// take consumes the source up to byte offset end and returns it.
func (l *Lexer) take(end int) string {
	text := l.src[l.pos:end]
	l.advance(end - l.pos)
	return text
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

// isIdentPart accepts '$' beyond the usual letter/digit/underscore so the
// reserved system-relation namespace (sys$metrics, sys$health, sys$streams)
// lexes as a single identifier across DDL, SAL and SSQL. '$' cannot start
// an identifier, so ordinary user names are unaffected.
func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
