package sqlparse

import (
	"fmt"
	"strings"
)

// lexReference is the upper-casing lexer: every identifier's text is
// its upper-case spelling and every string literal is built, escaped or
// not. FuzzLexReference checks lex against it token by token.
func lexReference(dst []token, src string) ([]token, error) {
	if cap(dst) == 0 {
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
			if (raw == "X" || raw == "x") && l.pos < len(l.src) && l.src[l.pos] == '\'' {
				s, err := l.stringLitReference()
				if err != nil {
					return l.toks, err
				}
				l.toks = append(l.toks, token{kind: tokString, text: s, raw: "X", pos: start})
				continue
			}
			l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToUpper(raw), raw: raw, pos: start})
		case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
			l.lexNumber()
		case c == '\'':
			s, err := l.stringLitReference()
			if err != nil {
				return l.toks, err
			}
			l.toks = append(l.toks, token{kind: tokString, text: s, raw: "'" + s + "'", pos: start})
		case c == '`':
			l.pos++
			end := strings.IndexByte(l.src[l.pos:], '`')
			if end < 0 {
				return l.toks, &ParseError{Pos: start, Detail: "unterminated quoted identifier"}
			}
			raw := l.src[l.pos : l.pos+end]
			l.pos += end + 1
			l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToUpper(raw), raw: raw, pos: start})
		case strings.IndexByte("(),=<>*.-+;:", c) >= 0:
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

func (l *lexer) stringLitReference() (string, error) {
	start := l.pos
	l.pos++
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

// lexDiff lexes src with lex and with lexReference and describes the
// first difference, or returns nil. Both must fail alike; token by
// token, kind, position and raw spelling must be equal, an identifier's
// folded text must be the reference's upper-cased text, and every other
// token's text must be equal. An identifier whose reference text is a
// keyword must carry that keyword as its text, any other its raw
// spelling.
func lexDiff(src string) error {
	got, gotErr := lex(nil, src)
	want, wantErr := lexReference(nil, src)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Errorf("lex(%q) error %v, reference %v", src, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("lex(%q) gave %d tokens, reference %d", src, len(got), len(want))
	}
	for i, g := range got {
		w := g
		if g.kind == tokIdent {
			w.text = g.folded()
			if kw, ok := keywords[want[i].text]; ok && g.text != kw || !ok && g.text != g.raw {
				return fmt.Errorf("lex(%q) token %d = %+v, reference %+v: text is neither the keyword nor the raw spelling", src, i, g, want[i])
			}
		}
		if w != want[i] {
			return fmt.Errorf("lex(%q) token %d = %+v (folded %q), reference %+v", src, i, g, w.text, want[i])
		}
	}
	return nil
}
