package serde

import (
	"fmt"
	"testing"

	"repro/internal/sqlval"
)

func benchRows(n int) (Schema, []sqlval.Row) {
	schema := Schema{Columns: []Column{
		{Name: "id", Type: sqlval.BigInt},
		{Name: "name", Type: sqlval.String},
		{Name: "score", Type: sqlval.Double},
		{Name: "tags", Type: sqlval.ArrayType(sqlval.String)},
	}}
	rows := make([]sqlval.Row, n)
	for i := range rows {
		rows[i] = sqlval.Row{
			sqlval.IntVal(sqlval.BigInt, int64(i)),
			sqlval.StringVal(fmt.Sprintf("user-%06d", i)),
			sqlval.DoubleVal(float64(i) * 1.5),
			sqlval.ArrayVal(sqlval.ArrayType(sqlval.String), sqlval.StringVal("a"), sqlval.StringVal("b")),
		}
	}
	return schema, rows
}

// BenchmarkEncode measures write-side serialization per format — the
// ad-hoc serialization hot path Finding 6 discusses.
func BenchmarkEncode(b *testing.B) {
	schema, rows := benchRows(1000)
	for _, name := range Formats() {
		format, _ := ByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := format.Encode(schema, nil, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode measures read-side deserialization per format.
func BenchmarkDecode(b *testing.B) {
	schema, rows := benchRows(1000)
	for _, name := range Formats() {
		format, _ := ByName(name)
		data, err := format.Encode(schema, nil, rows)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := format.Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
