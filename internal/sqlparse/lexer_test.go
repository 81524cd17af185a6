package sqlparse

import (
	"strings"
	"testing"
)

// TestLexAllocations pins the lexer's allocations on a harness INSERT
// and the pooled token buffer behind Parse. Into a buffer with room,
// lexing allocates nothing: keywords take their text from the keyword
// table, names and punctuation share the source text. Once the pool
// holds a buffer, Parse allocates exactly what the parser builds from
// ready tokens: the token buffer itself costs nothing.
func TestLexAllocations(t *testing.T) {
	const src = "INSERT INTO t_w_sql_r_df_orc_0001 VALUES (CAST(12 AS TINYINT))"
	toks, err := lex(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 13 {
		t.Fatalf("lexed %d tokens, want 13", len(toks))
	}
	if a := testing.AllocsPerRun(1000, func() { lex(toks[:0], src) }); a != 0 {
		t.Errorf("lex into a buffer with room allocates %.1f/op, want 0", a)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of returned buffers under the race detector")
	}
	parser := testing.AllocsPerRun(1000, func() { parse(toks) })
	if a := testing.AllocsPerRun(1000, func() { Parse(src) }); a != parser {
		t.Errorf("Parse allocates %.1f/op, want %.1f (parser)", a, parser)
	}
}

// TestParseHarnessAllocations pins Parse's allocations on the CREATE,
// INSERT and SELECT the harness issues for one case. Each statement
// costs its node and slices, and a parameterized type its spelling;
// no identifier, string literal or format name is copied.
func TestParseHarnessAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of returned buffers under the race detector")
	}
	for _, c := range []struct {
		src  string
		want float64
	}{
		{"CREATE TABLE t_w_sql_r_df_orc_0001 (TestCol VARCHAR(3)) STORED AS orc", 3}, // statement, columns, "VARCHAR(3)",
		{"INSERT INTO t_w_sql_r_df_orc_0001 VALUES ('abc')", 4},                      // statement, row, boxed literal, rows,
		{"SELECT * FROM t_w_sql_r_df_orc_0001", 2},                                   // statement, items,
	} {
		if a := testing.AllocsPerRun(1000, func() { Parse(c.src) }); a != c.want {
			t.Errorf("Parse(%q) allocates %.1f/op, want %.0f", c.src, a, c.want)
		}
	}
}

// A returned buffer holds no tokens, so the pool pins no statement text.
func TestPutTokensClears(t *testing.T) {
	buf := getTokens()
	toks, err := lex(*buf, "SELECT a FROM t WHERE b = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if !putTokens(buf, toks) {
		t.Fatal("small buffer not returned to the pool")
	}
	if len(*buf) != 0 {
		t.Errorf("pooled buffer has length %d, want 0", len(*buf))
	}
	for i, tk := range toks {
		if tk != (token{}) {
			t.Fatalf("token %d not cleared: %+v", i, tk)
		}
	}
}

// The buffer of an oversized statement goes to the collector, not back
// to the pool.
func TestOversizedTokenBufferNotPooled(t *testing.T) {
	src := "INSERT INTO t VALUES (" + strings.Repeat("1, ", maxPooledTokens) + "1)"
	buf := getTokens()
	toks, err := lex(*buf, src)
	if err != nil {
		t.Fatal(err)
	}
	if cap(toks) <= maxPooledTokens {
		t.Fatalf("statement lexed into %d tokens of capacity, want more than %d", cap(toks), maxPooledTokens)
	}
	if putTokens(buf, toks) {
		t.Error("oversized buffer returned to the pool")
	}
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if c := cap(*getTokens()); c > maxPooledTokens {
			t.Fatalf("pool holds a buffer of capacity %d, cap is %d", c, maxPooledTokens)
		}
	}
}

// Punctuation tokens are substrings of the source, spelled as written.
func TestLexPunctuation(t *testing.T) {
	toks, err := lex(nil, "(a,b)<=c<>d!=e;")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tk := range toks {
		if tk.kind == tokPunct {
			if tk.text != tk.raw {
				t.Errorf("punct text %q, raw %q", tk.text, tk.raw)
			}
			got = append(got, tk.text)
		}
	}
	want := []string{"(", ",", ")", "<=", "<>", "!=", ";"}
	if len(got) != len(want) {
		t.Fatalf("punctuation %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("punctuation %d = %q, want %q", i, got[i], want[i])
		}
	}
}
