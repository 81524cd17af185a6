package core

import (
	"reflect"
	"testing"

	"repro/internal/csi"
)

func mustInput(t *testing.T, id int, name, typ, lit string, valid bool) Input {
	t.Helper()
	in, err := MakeInput(id, name, typ, lit, valid)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestRunTablesDifferentialPairing: two table cases sharing column
// identity across formats form a differential probe group — the Avro
// INT widening of TINYINT must surface as the integral-widening
// discrepancy without materializing the full corpus matrix.
func TestRunTablesDifferentialPairing(t *testing.T) {
	in := mustInput(t, 7, "NarrowCol", "TINYINT", "5", true)
	var plan Plan
	for _, p := range Plans() {
		if p.Name() == "w_df_r_hive" {
			plan = p
		}
	}
	cases := []*TableCase{
		{Label: "tc_orc", Columns: []WideColumn{{Name: "NarrowCol", Input: in}}, Plan: plan, Format: "orc"},
		{Label: "tc_avro", Columns: []WideColumn{{Name: "NarrowCol", Input: in}}, Plan: plan, Format: "avro"},
	}
	res, err := RunTables(cases, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 2 {
		t.Fatalf("cases = %d, want 2 (one per column per table)", len(res.Cases))
	}
	var widening bool
	for _, f := range res.Failures {
		if f.Oracle == csi.OracleDifferential && f.Signature == "integral-widening" {
			widening = true
			if f.Peer == nil {
				t.Error("differential failure without peer")
			}
		}
	}
	if !widening {
		t.Errorf("no integral-widening differential failure; failures: %+v", res.Failures)
	}
}

// TestRunTablesMultiColumn: per-column oracle granularity — an invalid
// column in a multi-column row is detected without implicating its
// valid neighbours when the write succeeds silently.
func TestRunTablesMultiColumn(t *testing.T) {
	valid := mustInput(t, 20, "GoodCol", "INT", "42", true)
	invalid := mustInput(t, 21, "BadCol", "TINYINT", "999", false)
	var plan Plan
	for _, p := range Plans() {
		if p.Name() == "w_df_r_df" {
			plan = p
		}
	}
	cases := []*TableCase{{
		Label:   "tc_multi",
		Columns: []WideColumn{{Name: "GoodCol", Input: valid}, {Name: "BadCol", Input: invalid}},
		Plan:    plan,
		Format:  "orc",
	}}
	res, err := RunTables(cases, RunOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 2 {
		t.Fatalf("cases = %d, want one per column", len(res.Cases))
	}
	for _, f := range res.Failures {
		if f.Case.Input.Name == "GoodCol" {
			t.Errorf("valid column implicated: %s (%s)", f.Detail, f.Signature)
		}
	}
}

// RunTables results borrow their table case's column inputs: result i
// points at tc.Columns[i].Input, so sibling cases built over one column
// slice (as fuzzgen builds them) share each Input, and the run leaves
// the inputs as it found them.
func TestRunTablesResultsBorrowColumnInputs(t *testing.T) {
	cols := []WideColumn{
		{Name: "A", Input: mustInput(t, 1, "A", "INT", "42", true)},
		{Name: "B", Input: mustInput(t, 2, "B", "TINYINT", "999", false)},
		{Name: "C", Input: mustInput(t, 3, "C", "STRING", "'x'", true)},
	}
	want := append([]WideColumn(nil), cols...)
	var cases []*TableCase
	for _, p := range Plans()[:2] {
		for _, f := range Formats() {
			cases = append(cases, &TableCase{Label: "borrow_" + p.Name() + "_" + f, Columns: cols, Plan: p, Format: f})
		}
	}
	if _, err := RunTables(cases, RunOptions{Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		res := tc.Results()
		if len(res) != len(tc.Columns) {
			t.Fatalf("%s: %d results, want %d", tc.Label, len(res), len(tc.Columns))
		}
		for i := range res {
			if res[i].Input != &tc.Columns[i].Input {
				t.Errorf("%s result %d: Input is a copy, not &tc.Columns[%d].Input", tc.Label, i, i)
			}
			if res[i].Input != cases[0].Results()[i].Input {
				t.Errorf("%s result %d: sibling cases do not share the column's Input", tc.Label, i)
			}
		}
	}
	if !reflect.DeepEqual(cols, want) {
		t.Error("RunTables changed the table cases' columns")
	}
}
