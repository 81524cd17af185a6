package sqlparse_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sqlparse"
)

// corpusStatements are the statements a base-corpus run issues through
// the SQL interfaces: per input and format, the CREATE, INSERT and
// SELECT in the shapes core's writer and reader build.
func corpusStatements(tb testing.TB) []string {
	tb.Helper()
	base, err := core.BuildBaseCorpus()
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for i, in := range base {
		for _, format := range core.Formats() {
			table := fmt.Sprintf("t_w_sql_r_df_%s_%04d", format, i)
			out = append(out,
				"CREATE TABLE "+table+" ("+core.ColumnName+" "+in.Type.String()+") STORED AS "+format,
				"INSERT INTO "+table+" VALUES ("+in.Literal+")",
				"SELECT * FROM "+table)
		}
	}
	return out
}

// frontEndInputs are the hand-written inputs and the corpus statements.
func frontEndInputs(tb testing.TB) []string {
	return slices.Concat(sqlparse.FrontEndInputs, corpusStatements(tb))
}

// FuzzLexReference checks the lexer against the reference lexer it
// replaced: every input lexes to the same tokens, identifiers compared
// by their folded text. The seeds are every front-end input.
func FuzzLexReference(f *testing.F) {
	for _, src := range frontEndInputs(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if err := sqlparse.LexDiff(src); err != nil {
			t.Fatal(err)
		}
	})
}

// parseOutcomesSHA256 is the digest of every front-end input's parse
// outcome, recorded with the upper-casing lexer lexReference keeps. A
// change to what any input parses to, or to any error text, moves it.
const parseOutcomesSHA256 = "22417dccbcb56683d16984870f53e2e0d1c81de804482f0ce3b2a1eb12b4436d"

func TestParseOutcomes(t *testing.T) {
	h := sha256.New()
	for _, src := range frontEndInputs(t) {
		stmt, err := sqlparse.Parse(src)
		fmt.Fprintf(h, "%q => %s\n", src, renderOutcome(stmt, err))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != parseOutcomesSHA256 {
		t.Errorf("parse outcomes digest %s, want %s", got, parseOutcomesSHA256)
	}
}

// renderOutcome prints a parse outcome with every pointer followed, so
// the rendering holds no address. fmt prints a nil and an empty Props
// map alike.
func renderOutcome(stmt sqlparse.Statement, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	if s, ok := stmt.(*sqlparse.Select); ok {
		c := *s
		where, order := c.Where, c.OrderBy
		c.Where, c.OrderBy = nil, nil
		return fmt.Sprintf("%T %+v where=%+v order=%+v", stmt, c, where, order)
	}
	return fmt.Sprintf("%T %+v", stmt, stmt)
}

// BenchmarkParse parses the statements of a base-corpus run, one
// statement per op.
func BenchmarkParse(b *testing.B) {
	stmts := corpusStatements(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(stmts[i%len(stmts)]); err != nil {
			b.Fatal(err)
		}
	}
}
