package workload

import (
	"testing"

	"repro/internal/sqlval"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Spec{Tables: 2, RowsPerTable: 50, BatchSize: 20})
	b := Generate(Spec{Tables: 2, RowsPerTable: 50, BatchSize: 20})
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("tables = %d / %d", len(a), len(b))
	}
	for ti := range a {
		for bi := range a[ti].Batches {
			for ri := range a[ti].Batches[bi] {
				ra, rb := a[ti].Batches[bi][ri], b[ti].Batches[bi][ri]
				if !ra.Equal(rb) {
					t.Fatalf("row %d/%d/%d differs: %v vs %v", ti, bi, ri, ra, rb)
				}
			}
		}
	}
	// Different seeds generate different data.
	c := Generate(Spec{Tables: 2, RowsPerTable: 50, BatchSize: 20, Seed: 42})
	if a[0].Batches[0][0].Equal(c[0].Batches[0][0]) {
		t.Error("different seeds should generate different rows")
	}
}

func TestGenerateShape(t *testing.T) {
	tables := Generate(Spec{Tables: 3, RowsPerTable: 55, BatchSize: 20})
	rows, batches := 0, 0
	for _, tab := range tables {
		for _, b := range tab.Batches {
			rows += len(b)
			batches++
		}
	}
	if rows != 165 {
		t.Errorf("rows = %d", rows)
	}
	if batches != 9 { // 3 full batches per table (20+20+15)
		t.Errorf("batches = %d", batches)
	}
	for _, tab := range tables {
		if len(tab.Schema.Columns) != 7 {
			t.Errorf("schema = %v", tab.Schema)
		}
		for _, batch := range tab.Batches {
			for _, row := range batch {
				if len(row) != 7 {
					t.Fatalf("row arity = %d", len(row))
				}
				if row[3].Kind() != sqlval.KindDecimal || row[3].Dec().Scale != 2 {
					t.Fatalf("amount = %v", row[3])
				}
			}
		}
	}
}

func TestRunViaDataFrameHitsLegacyDecimal(t *testing.T) {
	// Under the default configuration the DataFrame loader writes
	// Spark's legacy binary decimals: Spark scans everything, Hive scans
	// nothing — SPARK-39158 at workload scale.
	tables := Generate(Spec{Tables: 2, RowsPerTable: 100, BatchSize: 50})
	res, err := Run(tables, ViaDataFrame, "parquet", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsIn != 200 || res.RowsOut != 200 {
		t.Errorf("rows in/out = %d/%d", res.RowsIn, res.RowsOut)
	}
	if res.ScanAgree || res.HiveScanErrors != 2 {
		t.Errorf("res = %+v, want every Hive scan to fail under the default config", res)
	}
}

func TestRunViaDataFrameFixedDecimalWriter(t *testing.T) {
	tables := Generate(Spec{Tables: 2, RowsPerTable: 100, BatchSize: 50})
	res, err := Run(tables, ViaDataFrame, "parquet",
		map[string]string{"spark.sql.hive.writeLegacyDecimal": "false"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ScanAgree || res.HiveScanErrors != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestRunViaHive(t *testing.T) {
	tables := Generate(Spec{Tables: 1, RowsPerTable: 60, BatchSize: 30})
	res, err := Run(tables, ViaHive, "orc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsIn != 60 || res.RowsOut != 60 || !res.ScanAgree {
		t.Errorf("res = %+v", res)
	}
}

func TestRunAvroCrossEngineAgreesOnCounts(t *testing.T) {
	// With the decimal writer fixed, the workload schema avoids the
	// Avro-incompatible types, so even the widening format agrees.
	tables := Generate(Spec{Tables: 1, RowsPerTable: 40, BatchSize: 40})
	res, err := Run(tables, ViaDataFrame, "avro",
		map[string]string{"spark.sql.hive.writeLegacyDecimal": "false"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ScanAgree || res.RowsOut != 40 {
		t.Errorf("res = %+v", res)
	}
}

func TestLiteralRendering(t *testing.T) {
	cases := map[string]sqlval.Value{
		"NULL":                            sqlval.NullOf(sqlval.Int),
		"'it''s'":                         sqlval.StringVal("it's"),
		"true":                            sqlval.BoolVal(true),
		"DATE '1970-01-01'":               sqlval.DateVal(0),
		"TIMESTAMP '1970-01-01 00:00:01'": sqlval.TimestampVal(sqlval.MicrosPerSecond),
		"42":                              sqlval.IntVal(sqlval.Int, 42),
	}
	for want, v := range cases {
		if got := literal(v); got != want {
			t.Errorf("literal(%v) = %q, want %q", v, got, want)
		}
	}
}
