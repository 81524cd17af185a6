package sqlparse

import "testing"

// TestLexAllocations pins the lexer's allocations on a harness INSERT:
// one token slice sized up front (punctuation shares the source text)
// plus the upper-cased copy of the lower-case table name.
func TestLexAllocations(t *testing.T) {
	const src = "INSERT INTO t_w_sql_r_df_orc_0001 VALUES (CAST(12 AS TINYINT))"
	toks, err := lex(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 13 {
		t.Fatalf("lexed %d tokens, want 13", len(toks))
	}
	if a := testing.AllocsPerRun(1000, func() { lex(src) }); a != 2 {
		t.Errorf("lex allocates %.1f/op, want 2", a)
	}
}

// Punctuation tokens are substrings of the source, spelled as written.
func TestLexPunctuation(t *testing.T) {
	toks, err := lex("(a,b)<=c<>d!=e;")
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
