package sparksim

import (
	"fmt"
	"testing"

	"repro/internal/hdfssim"
	"repro/internal/hivesim"
	"repro/internal/serde"
	"repro/internal/sqlval"
)

// BenchmarkSQLInsertSelect measures a full SparkSQL write/read cycle
// per format — the per-test-case cost of the cross-testing harness.
func BenchmarkSQLInsertSelect(b *testing.B) {
	for _, format := range []string{"orc", "parquet", "avro"} {
		b.Run(format, func(b *testing.B) {
			e := newBenchEnv()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				table := fmt.Sprintf("t_%s_%d", format, i)
				if _, err := e.SQL(fmt.Sprintf("CREATE TABLE %s (Id INT, Name STRING) STORED AS %s", table, format)); err != nil {
					b.Fatal(err)
				}
				if _, err := e.SQL(fmt.Sprintf("INSERT INTO %s VALUES (1, 'x')", table)); err != nil {
					b.Fatal(err)
				}
				if _, err := e.SQL(fmt.Sprintf("SELECT * FROM %s", table)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDataFrameSave measures the DataFrame write path with the
// legacy decimal transformation.
func BenchmarkDataFrameSave(b *testing.B) {
	e := newBenchEnv()
	d, _ := sqlval.ParseDecimal("12.34")
	schema := serde.Schema{Columns: []serde.Column{{Name: "amt", Type: sqlval.DecimalType(10, 2)}}}
	rows := make([]sqlval.Row, 100)
	for i := range rows {
		rows[i] = sqlval.Row{sqlval.DecimalVal(sqlval.DecimalType(10, d.Scale), d)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		df, err := e.CreateDataFrame(schema, rows)
		if err != nil {
			b.Fatal(err)
		}
		if err := df.SaveAsTable(fmt.Sprintf("t_%d", i), "parquet"); err != nil {
			b.Fatal(err)
		}
	}
}

func newBenchEnv() *Session {
	return NewSession(hdfssim.New(nil), hivesim.NewMetastore())
}
