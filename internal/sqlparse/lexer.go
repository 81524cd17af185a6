// Package sqlparse implements the SQL subset shared by the simulated
// HiveQL and SparkSQL front ends: CREATE/DROP TABLE, INSERT ... VALUES,
// and single-table SELECT with optional WHERE. Literals cover every
// type exercised by the cross-testing corpus, including typed DATE /
// TIMESTAMP literals, hex BINARY literals, and the ARRAY / MAP /
// NAMED_STRUCT constructors.
package sqlparse

import (
	"fmt"
	"strings"
	"sync"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct
)

type token struct {
	kind tokenKind
	text string // identifiers are upper-cased; strings are unquoted
	raw  string // original spelling
	pos  int
}

// ParseError reports a syntax error with its byte offset.
type ParseError struct {
	Pos    int
	Detail string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("sql: parse error at offset %d: %s", e.Pos, e.Detail)
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// maxPooledTokens caps the capacity of a token buffer kept for reuse:
// the buffer of an unusually long statement goes to the collector
// rather than pinning its memory in the pool. Harness statements lex to
// a few dozen tokens.
const maxPooledTokens = 1024

// tokenPool holds cleared token buffers between Parse calls. Tokens are
// values and the parser keeps only their strings, so no token or
// sub-slice of a buffer outlives the Parse that borrowed it.
var tokenPool = sync.Pool{New: func() any { return new([]token) }}

// getTokens borrows an empty token buffer.
func getTokens() *[]token { return tokenPool.Get().(*[]token) }

// putTokens clears the tokens lexed into a borrowed buffer, so the pool
// retains no statement text, and returns it unless it grew past
// maxPooledTokens. It reports whether the buffer was kept.
func putTokens(buf *[]token, toks []token) bool {
	if cap(toks) > maxPooledTokens {
		return false
	}
	clear(toks)
	*buf = toks[:0]
	tokenPool.Put(buf)
	return true
}

// lex appends src's tokens to dst and returns the extended slice, also
// on error, so a borrowed buffer can be returned to the pool.
func lex(dst []token, src string) ([]token, error) {
	if cap(dst) == 0 {
		// A fresh buffer: statements average well over three bytes per
		// token, so one allocation usually holds every token.
		dst = make([]token, 0, len(src)/3+2)
	}
	l := lexer{src: src, toks: dst}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			raw := l.src[start:l.pos]
			// X'...' hex binary literal.
			if (raw == "X" || raw == "x") && l.pos < len(l.src) && l.src[l.pos] == '\'' {
				s, err := l.stringLit()
				if err != nil {
					return l.toks, err
				}
				// The raw spelling "X" marks a hex literal; see
				// parser.exprLit.
				l.toks = append(l.toks, token{kind: tokString, text: s, raw: "X", pos: start})
				continue
			}
			l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToUpper(raw), raw: raw, pos: start})
		case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
			l.lexNumber()
		case c == '\'':
			s, err := l.stringLit()
			if err != nil {
				return l.toks, err
			}
			l.toks = append(l.toks, token{kind: tokString, text: s, raw: "'" + s + "'", pos: start})
		case c == '`':
			// Backquoted identifier: preserves case and special chars.
			l.pos++
			end := strings.IndexByte(l.src[l.pos:], '`')
			if end < 0 {
				return l.toks, &ParseError{Pos: start, Detail: "unterminated quoted identifier"}
			}
			raw := l.src[l.pos : l.pos+end]
			l.pos += end + 1
			l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToUpper(raw), raw: raw, pos: start})
		case strings.IndexByte("(),=<>*.-+;:", c) >= 0:
			// Two-char operators.
			if l.pos+1 < len(l.src) {
				two := l.src[l.pos : l.pos+2]
				if two == "<=" || two == ">=" || two == "<>" || two == "!=" {
					l.pos += 2
					l.toks = append(l.toks, token{kind: tokPunct, text: two, raw: two, pos: start})
					continue
				}
			}
			l.pos++
			one := l.src[start:l.pos]
			l.toks = append(l.toks, token{kind: tokPunct, text: one, raw: one, pos: start})
		case c == '!':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.pos += 2
				l.toks = append(l.toks, token{kind: tokPunct, text: "!=", raw: "!=", pos: start})
				continue
			}
			return l.toks, &ParseError{Pos: start, Detail: "unexpected '!'"}
		default:
			return l.toks, &ParseError{Pos: start, Detail: fmt.Sprintf("unexpected character %q", string(c))}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
}

func (l *lexer) lexNumber() {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if (c >= '0' && c <= '9') || c == '.' {
			l.pos++
			continue
		}
		if c == 'e' || c == 'E' {
			// Exponent with optional sign.
			next := l.pos + 1
			if next < len(l.src) && (l.src[next] == '+' || l.src[next] == '-') {
				next++
			}
			if next < len(l.src) && l.src[next] >= '0' && l.src[next] <= '9' {
				l.pos = next
				continue
			}
		}
		break
	}
	raw := l.src[start:l.pos]
	l.toks = append(l.toks, token{kind: tokNumber, text: raw, raw: raw, pos: start})
}

func (l *lexer) stringLit() (string, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return b.String(), nil
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			switch l.src[l.pos] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\':
				b.WriteByte('\\')
			case '\'':
				b.WriteByte('\'')
			default:
				b.WriteByte(l.src[l.pos])
			}
			l.pos++
			continue
		}
		b.WriteByte(c)
		l.pos++
	}
	return "", &ParseError{Pos: start, Detail: "unterminated string literal"}
}

func isIdentStart(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
