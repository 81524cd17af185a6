package core

import (
	"strings"
	"testing"

	"repro/internal/versions"
)

// TestReleaseEmptiesWarehouse: release drops a table's metastore entry
// and its files, whichever interface wrote it and whether or not it is
// partitioned, while a sibling-prefix neighbour stays readable.
func TestReleaseEmptiesWarehouse(t *testing.T) {
	skew, err := NewSkewDeployment(mustPair(t, "2.3.0/2.3.9->3.2.1/3.1.2"))
	if err != nil {
		t.Fatal(err)
	}
	in := mustInput(t, 1, "ReleaseCol", "INT", "42", true)
	for _, dc := range []struct {
		name string
		d    *Deployment
	}{{"plain", NewDeployment()}, {"skew", skew}} {
		d := dc.d
		t.Run(dc.name, func(t *testing.T) {
			writes := map[string]WriteOutcome{
				"rel_ss":    d.Write(SparkSQL, "rel_ss", "orc", in),
				"rel_hq":    d.Write(HiveQL, "rel_hq", "orc", in),
				"rel_df":    d.Write(DataFrame, "rel_df", "parquet", in),
				"rel_ss_rw": d.ReaderWriteSpan(nil, SparkSQL, "rel_ss_rw", "orc", in),
				"rel_pt": createInsert(d.Spark, d.Hive, nil, SparkSQL,
					"CREATE TABLE rel_pt (N INT) PARTITIONED BY (Tag STRING) STORED AS orc",
					"INSERT INTO rel_pt VALUES (1, 'a')"),
			}
			for table, w := range writes {
				if w.Err != nil {
					t.Fatalf("write %s: %v", table, w.Err)
				}
				if len(d.FS.List("/warehouse/"+table)) == 0 {
					t.Fatalf("write %s left no files", table)
				}
			}
			// A table its CREATE never registered releases as a no-op,
			// without building a lookup error.
			if n := testing.AllocsPerRun(10, func() { d.release("rel_never_created") }); n != 0 {
				t.Errorf("releasing an unregistered table allocates %.0f objects, want 0", n)
			}
			for _, table := range []string{"rel_ss", "rel_hq", "rel_df", "rel_pt"} {
				d.release(table)
			}
			if got := d.MS.Tables(); len(got) != 1 || got[0] != "rel_ss_rw" {
				t.Errorf("tables after release = %v, want only the neighbour", got)
			}
			for _, p := range d.FS.List("/warehouse") {
				if !strings.HasPrefix(p, "/warehouse/rel_ss_rw/") {
					t.Errorf("file %s survived its table's release", p)
				}
			}
			r := d.Read(SparkSQL, "rel_ss_rw")
			if r.Err != nil || !r.HasRow || !r.Value.EqualData(in.Expected) {
				t.Errorf("neighbour read = %+v, want %s", r, in.Expected)
			}

			d.release("rel_ss_rw")
			if got := d.MS.Tables(); len(got) != 0 {
				t.Errorf("tables after releasing all = %v", got)
			}
			if got := d.FS.List("/warehouse"); len(got) != 0 {
				t.Errorf("warehouse after releasing all = %v", got)
			}
		})
	}
}

// TestReadOutcomeValueIffRow: every read outcome a harness mode keeps,
// the skew probes included, carries a value exactly when a row came
// back.
func TestReadOutcomeValueIffRow(t *testing.T) {
	base, err := BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	inputs := base[:20]
	check := func(mode string, cases []*CaseResult) {
		t.Helper()
		rows := 0
		for _, c := range cases {
			for _, r := range []*ReadOutcome{&c.Read, &c.WriterRead, &c.RWRead} {
				if r.HasRow != (r.Value != nil) {
					t.Errorf("%s %s: HasRow %t, Value %v", mode, c.Describe(), r.HasRow, r.Value)
				}
				if r.HasRow {
					rows++
				}
			}
		}
		if rows == 0 {
			t.Errorf("%s: no read returned a row", mode)
		}
	}
	run, err := Run(inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check("Run", run.Cases)
	skew, err := RunSkew(inputs, versions.DefaultPairs()[1], RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check("RunSkew", skew.Cases)
	cols := BuildWideTable(inputs)
	var tcs []*TableCase
	for _, plan := range Plans() {
		tcs = append(tcs, &TableCase{Label: "iff_" + plan.Name(), Columns: cols, Plan: plan, Format: "parquet", Ord: int64(len(tcs))})
	}
	tables, err := RunTables(tcs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check("RunTables", tables.Cases)
	// A wide run keeps its cases only through its failures.
	wide, err := RunWide(inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wideCases []*CaseResult
	for _, f := range wide.Failures {
		wideCases = append(wideCases, f.Case)
		if f.Peer != nil {
			wideCases = append(wideCases, f.Peer)
		}
	}
	check("RunWide", wideCases)
	parts, err := RunPartitions("orc", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check("RunPartitions", parts.Cases)
}
