// Package workload generates deterministic analytic workloads for the
// benchmark harness: batches of typed rows over parameterized schemas,
// and driver routines that run them through the co-deployed engines.
// The generator is seeded and pure, so every benchmark run replays the
// identical workload.
package workload

import (
	"fmt"
	"math"

	"repro/internal/serde"
	"repro/internal/sqlval"
)

// Spec parameterizes a workload.
type Spec struct {
	// Tables is the number of tables to create.
	Tables int
	// RowsPerTable is the rows inserted into each table.
	RowsPerTable int
	// BatchSize is the rows per INSERT (each batch becomes a part file).
	BatchSize int
	// Format is the storage format ("orc", "parquet", "avro").
	Format string
	// Seed drives the deterministic generator.
	Seed uint64
}

// Defaults fills zero fields with usable values.
func (s Spec) Defaults() Spec {
	if s.Tables == 0 {
		s.Tables = 4
	}
	if s.RowsPerTable == 0 {
		s.RowsPerTable = 1000
	}
	if s.BatchSize == 0 {
		s.BatchSize = 200
	}
	if s.Format == "" {
		s.Format = "parquet"
	}
	if s.Seed == 0 {
		s.Seed = 0x9e3779b97f4a7c15
	}
	return s
}

// Table is one generated table: a schema and its row batches.
type Table struct {
	Name    string
	Schema  serde.Schema
	Batches [][]sqlval.Row
}

// rng is a small splitmix64 generator: deterministic, seedable, and
// independent of the math/rand global state.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// analyticSchema is the fixed mixed-type schema analytic fact tables
// use: identifiers, measures, dimensions, and a timestamp.
func analyticSchema() serde.Schema {
	return serde.Schema{Columns: []serde.Column{
		{Name: "EventId", Type: sqlval.BigInt},
		{Name: "UserId", Type: sqlval.Int},
		{Name: "Action", Type: sqlval.String},
		{Name: "Amount", Type: sqlval.DecimalType(12, 2)},
		{Name: "Score", Type: sqlval.Double},
		{Name: "Flagged", Type: sqlval.Boolean},
		{Name: "At", Type: sqlval.Timestamp},
	}}
}

var actions = []string{"view", "click", "purchase", "refund", "share"}

// Generate builds the workload.
func Generate(spec Spec) []Table {
	spec = spec.Defaults()
	r := &rng{state: spec.Seed}
	schema := analyticSchema()
	tables := make([]Table, spec.Tables)
	for t := range tables {
		table := Table{Name: fmt.Sprintf("events_%02d", t), Schema: schema}
		rows := make([]sqlval.Row, spec.RowsPerTable)
		for i := range rows {
			cents := int64(r.intn(1_000_000))
			rows[i] = sqlval.Row{
				sqlval.IntVal(sqlval.BigInt, int64(t)<<32|int64(i)),
				sqlval.IntVal(sqlval.Int, int64(r.intn(100_000))),
				sqlval.StringVal(actions[r.intn(len(actions))]),
				sqlval.DecimalVal(sqlval.DecimalType(12, 2), sqlval.Decimal{Unscaled: cents, Scale: 2}),
				sqlval.DoubleVal(math.Sqrt(float64(r.intn(10_000)))),
				sqlval.BoolVal(r.intn(100) < 3),
				sqlval.TimestampVal(1_600_000_000_000_000 + int64(i)*sqlval.MicrosPerSecond),
			}
		}
		for start := 0; start < len(rows); start += spec.BatchSize {
			end := start + spec.BatchSize
			if end > len(rows) {
				end = len(rows)
			}
			table.Batches = append(table.Batches, rows[start:end])
		}
		tables[t] = table
	}
	return tables
}

// Totals reports the workload's size.
func Totals(tables []Table) (rows, batches int) {
	for _, t := range tables {
		for _, b := range t.Batches {
			rows += len(b)
			batches++
		}
	}
	return rows, batches
}
