package sqlparse

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqlval"
)

// Parse parses a single SQL statement (an optional trailing ';' is
// allowed). It is safe for concurrent use.
func Parse(src string) (Statement, error) {
	buf := getTokens()
	toks, err := lex(*buf, src)
	var stmt Statement
	if err == nil {
		stmt, err = parse(toks)
	}
	putTokens(buf, toks)
	return stmt, err
}

// parse parses a lexed statement. The tokens belong to Parse's pooled
// buffer: the statement may keep their strings, never the tokens.
func parse(toks []token) (Statement, error) {
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tokPunct, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errorf("trailing input %q", p.cur().raw)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		return t, p.errorf("expected %s, found %q", want, t.raw)
	}
	p.pos++
	return t, nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().pos, Detail: fmt.Sprintf(format, args...)}
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.accept(tokIdent, "CREATE"):
		return p.createTable()
	case p.accept(tokIdent, "DROP"):
		return p.dropTable()
	case p.accept(tokIdent, "INSERT"):
		return p.insert()
	case p.accept(tokIdent, "SELECT"):
		return p.selectStmt()
	default:
		return nil, p.errorf("expected CREATE, DROP, INSERT or SELECT, found %q", p.cur().raw)
	}
}

func (p *parser) createTable() (Statement, error) {
	if _, err := p.expect(tokIdent, "TABLE"); err != nil {
		return nil, err
	}
	stmt := &CreateTable{Props: map[string]string{}}
	if p.accept(tokIdent, "IF") {
		if _, err := p.expect(tokIdent, "NOT"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokIdent, "EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfNotExists = true
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	stmt.Table = name.raw
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		stmt.Columns = append(stmt.Columns, ColumnDef{Name: col.raw, Type: typ})
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	if p.accept(tokIdent, "PARTITIONED") {
		if _, err := p.expect(tokIdent, "BY"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		for {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			stmt.PartitionedBy = append(stmt.PartitionedBy, ColumnDef{Name: col.raw, Type: typ})
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
	}
	if p.accept(tokIdent, "STORED") {
		if _, err := p.expect(tokIdent, "AS"); err != nil {
			return nil, err
		}
		f, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		stmt.Format = strings.ToLower(f.text)
	}
	if p.accept(tokIdent, "USING") {
		f, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		stmt.Format = strings.ToLower(f.text)
	}
	if p.accept(tokIdent, "TBLPROPERTIES") {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		for {
			k, err := p.expect(tokString, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "="); err != nil {
				return nil, err
			}
			v, err := p.expect(tokString, "")
			if err != nil {
				return nil, err
			}
			stmt.Props[k.text] = v.text
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

// parseType consumes a type spelling, gathering the tokens that belong
// to it (parameters, angle brackets) and delegating to sqlval.ParseType.
func (p *parser) parseType() (sqlval.Type, error) {
	start := p.pos
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return sqlval.Null, err
	}
	var b strings.Builder
	b.WriteString(name.text)
	switch name.text {
	case "DECIMAL", "NUMERIC", "CHAR", "VARCHAR":
		if p.accept(tokPunct, "(") {
			b.WriteByte('(')
			for !p.at(tokPunct, ")") {
				if p.at(tokEOF, "") {
					return sqlval.Null, p.errorf("unterminated type parameters")
				}
				b.WriteString(p.cur().text)
				p.pos++
			}
			p.pos++
			b.WriteByte(')')
		}
	case "ARRAY", "MAP", "STRUCT":
		if _, err := p.expect(tokPunct, "<"); err != nil {
			return sqlval.Null, err
		}
		b.WriteByte('<')
		depth := 1
		for depth > 0 {
			t := p.cur()
			if t.kind == tokEOF {
				return sqlval.Null, p.errorf("unterminated nested type")
			}
			switch {
			case t.kind == tokPunct && t.text == "<":
				depth++
				b.WriteByte('<')
			case t.kind == tokPunct && t.text == ">":
				depth--
				b.WriteByte('>')
			case t.kind == tokPunct && t.text == ">=":
				// ">=" cannot appear in a well-formed type spelling.
				return sqlval.Null, p.errorf("malformed nested type")
			case t.kind == tokIdent:
				// Preserve the original case: struct field names are
				// case-significant to engines that preserve case, and
				// sqlval.ParseType accepts type keywords in any case.
				b.WriteString(t.raw)
			default:
				b.WriteString(t.text)
			}
			p.pos++
		}
	}
	typ, err := sqlval.ParseType(b.String())
	if err != nil {
		p.pos = start
		return sqlval.Null, p.errorf("bad type: %v", err)
	}
	return typ, nil
}

func (p *parser) dropTable() (Statement, error) {
	if _, err := p.expect(tokIdent, "TABLE"); err != nil {
		return nil, err
	}
	stmt := &DropTable{}
	if p.accept(tokIdent, "IF") {
		if _, err := p.expect(tokIdent, "EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfExists = true
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	stmt.Table = name.raw
	return stmt, nil
}

func (p *parser) insert() (Statement, error) {
	// Accept both INSERT INTO and Hive's INSERT [OVERWRITE] TABLE.
	overwrite := false
	if !p.accept(tokIdent, "INTO") {
		if _, err := p.expect(tokIdent, "OVERWRITE"); err != nil {
			return nil, p.errorf("expected INTO or OVERWRITE")
		}
		overwrite = true
	}
	p.accept(tokIdent, "TABLE")
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	stmt := &Insert{Table: name.raw, Overwrite: overwrite}
	if _, err := p.expect(tokIdent, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.exprLit()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	return stmt, nil
}

func (p *parser) selectStmt() (Statement, error) {
	stmt := &Select{Limit: -1}
	for {
		if p.accept(tokPunct, "*") {
			stmt.Items = append(stmt.Items, SelectItem{Star: true})
		} else {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			switch col.text {
			case "COUNT", "SUM", "MIN", "MAX", "AVG":
				if p.accept(tokPunct, "(") {
					item := SelectItem{Agg: strings.ToLower(col.text)}
					if p.accept(tokPunct, "*") {
						if item.Agg != "count" {
							return nil, p.errorf("%s(*) is not supported", col.text)
						}
						item.Star = true
					} else {
						inner, err := p.expect(tokIdent, "")
						if err != nil {
							return nil, err
						}
						item.Column = inner.raw
					}
					if _, err := p.expect(tokPunct, ")"); err != nil {
						return nil, err
					}
					stmt.Items = append(stmt.Items, item)
					break
				}
				stmt.Items = append(stmt.Items, SelectItem{Column: col.raw})
			default:
				stmt.Items = append(stmt.Items, SelectItem{Column: col.raw})
			}
		}
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokIdent, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	stmt.Table = name.raw
	if p.accept(tokIdent, "WHERE") {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		op := p.cur()
		switch op.text {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			p.pos++
		default:
			return nil, p.errorf("expected comparison operator, found %q", op.raw)
		}
		val, err := p.exprLit()
		if err != nil {
			return nil, err
		}
		opText := op.text
		if opText == "<>" {
			opText = "!="
		}
		stmt.Where = &Where{Column: col.raw, Op: opText, Value: val}
	}
	if p.accept(tokIdent, "GROUP") {
		if _, err := p.expect(tokIdent, "BY"); err != nil {
			return nil, err
		}
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		stmt.GroupBy = col.raw
	}
	if p.accept(tokIdent, "ORDER") {
		if _, err := p.expect(tokIdent, "BY"); err != nil {
			return nil, err
		}
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		ob := &OrderBy{Column: col.raw}
		if p.accept(tokIdent, "DESC") {
			ob.Desc = true
		} else {
			p.accept(tokIdent, "ASC")
		}
		stmt.OrderBy = ob
	}
	if p.accept(tokIdent, "LIMIT") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		limit, err := strconv.Atoi(n.text)
		if err != nil || limit < 0 {
			return nil, p.errorf("bad LIMIT %q", n.text)
		}
		stmt.Limit = limit
	}
	return stmt, nil
}

// exprLit parses a literal expression.
func (p *parser) exprLit() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokPunct && t.text == "-":
		p.pos++
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		return NumberLit{Raw: n.text, Neg: true}, nil
	case t.kind == tokPunct && t.text == "+":
		p.pos++
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		return NumberLit{Raw: n.text}, nil
	case t.kind == tokNumber:
		p.pos++
		return NumberLit{Raw: t.text}, nil
	case t.kind == tokString && t.raw == "X":
		p.pos++
		b, err := hex.DecodeString(t.text)
		if err != nil {
			return nil, p.errorf("bad hex literal: %v", err)
		}
		return BinaryLit{Value: b}, nil
	case t.kind == tokString:
		p.pos++
		return StringLit{Value: t.text}, nil
	case t.kind == tokIdent:
		switch t.text {
		case "NULL":
			p.pos++
			return NullLit{}, nil
		case "TRUE":
			p.pos++
			return BoolLit{Value: true}, nil
		case "FALSE":
			p.pos++
			return BoolLit{Value: false}, nil
		case "DATE", "TIMESTAMP":
			p.pos++
			s, err := p.expect(tokString, "")
			if err != nil {
				return nil, err
			}
			typ := sqlval.Date
			if t.text == "TIMESTAMP" {
				typ = sqlval.Timestamp
			}
			return TypedLit{Type: typ, Raw: s.text}, nil
		case "ARRAY":
			p.pos++
			items, err := p.argList()
			if err != nil {
				return nil, err
			}
			return ArrayLit{Items: items}, nil
		case "MAP":
			p.pos++
			items, err := p.argList()
			if err != nil {
				return nil, err
			}
			if len(items)%2 != 0 {
				return nil, p.errorf("MAP requires an even number of arguments")
			}
			m := MapLit{}
			for i := 0; i < len(items); i += 2 {
				m.Keys = append(m.Keys, items[i])
				m.Vals = append(m.Vals, items[i+1])
			}
			return m, nil
		case "NAMED_STRUCT":
			p.pos++
			items, err := p.argList()
			if err != nil {
				return nil, err
			}
			if len(items)%2 != 0 {
				return nil, p.errorf("NAMED_STRUCT requires an even number of arguments")
			}
			s := StructLit{}
			for i := 0; i < len(items); i += 2 {
				name, ok := items[i].(StringLit)
				if !ok {
					return nil, p.errorf("NAMED_STRUCT field names must be string literals")
				}
				s.Names = append(s.Names, name.Value)
				s.Vals = append(s.Vals, items[i+1])
			}
			return s, nil
		case "CAST":
			p.pos++
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			inner, err := p.exprLit()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokIdent, "AS"); err != nil {
				return nil, err
			}
			to, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return CastExpr{Inner: inner, To: to}, nil
		}
		return nil, p.errorf("unexpected identifier %q in expression", t.raw)
	default:
		return nil, p.errorf("unexpected token %q in expression", t.raw)
	}
}

func (p *parser) argList() ([]Expr, error) {
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var items []Expr
	if p.accept(tokPunct, ")") {
		return items, nil
	}
	for {
		e, err := p.exprLit()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	return items, nil
}
