package sqlparse_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/fuzzgen"
	"repro/internal/sqlparse"
)

// harnessStatements builds the statements the harness and the fuzzer
// issue: the base corpus's statements, and a multi-column CREATE,
// INSERT and truncated INSERT per generated fuzz case.
func harnessStatements(t *testing.T) []string {
	t.Helper()
	out := corpusStatements(t)
	gen := fuzzgen.NewGenerator(1, 6)
	for i := 0; i < 300; i++ {
		c := gen.Case(i)
		defs := make([]string, len(c.Columns))
		lits := make([]string, len(c.Columns))
		for j, col := range c.Columns {
			defs[j] = col.Name + " " + col.Type
			lits[j] = col.Literal
		}
		insert := "INSERT INTO fz VALUES (" + strings.Join(lits, ", ") + ")"
		out = append(out,
			"CREATE TABLE fz ("+strings.Join(defs, ", ")+") STORED AS parquet",
			insert,
			// Cut short, the statement takes the error paths.
			insert[:len(insert)/2])
	}
	return out
}

type parsed struct {
	stmt sqlparse.Statement
	err  string
}

func parseAll(stmts []string) []parsed {
	out := make([]parsed, len(stmts))
	for i, src := range stmts {
		stmt, err := sqlparse.Parse(src)
		out[i].stmt = stmt
		if err != nil {
			out[i].err = err.Error()
		}
	}
	return out
}

// Goroutines sharing the pooled token buffers parse exactly what a
// sequential parse does: no buffer is handed to two parses at once and
// no statement keeps a token of a buffer another parse reuses.
func TestParseConcurrent(t *testing.T) {
	stmts := harnessStatements(t)
	want := parseAll(stmts)
	const workers = 8
	got := make([][]parsed, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at its own offset, so different
			// statements are in flight at once.
			rotated := append(append([]string(nil), stmts[w*len(stmts)/workers:]...), stmts[:w*len(stmts)/workers]...)
			got[w] = parseAll(rotated)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		off := w * len(stmts) / workers
		for i, g := range got[w] {
			k := (off + i) % len(stmts)
			if !reflect.DeepEqual(g, want[k]) {
				t.Fatalf("worker %d, statement %q:\n got  %#v\n want %#v", w, stmts[k], g, want[k])
			}
		}
	}
}
