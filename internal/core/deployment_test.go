package core

import (
	"strings"
	"testing"
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
