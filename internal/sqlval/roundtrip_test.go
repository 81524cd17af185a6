package sqlval_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/serde"
	"repro/internal/sqlval"
)

// Every generated row survives each format's encode and decode, in every
// format that can represent its types (Avro rejects non-string map keys,
// and its promotions keep the data while changing the declared type).
func TestGeneratedRowsRoundTripEveryFormat(t *testing.T) {
	const seeds = 300
	for seed := int64(0); seed < seeds; seed++ {
		row := sqlval.GenRow(seed, 3)
		schema := serde.Schema{}
		for i, v := range row {
			schema.Columns = append(schema.Columns, serde.Column{Name: fmt.Sprintf("c%d", i), Type: v.Type()})
		}
		for _, name := range []string{"orc", "parquet", "avro"} {
			format, _ := serde.ByName(name)
			data, err := format.Encode(schema, nil, []sqlval.Row{row})
			var unsupported *serde.UnsupportedError
			if errors.As(err, &unsupported) {
				continue
			}
			if err != nil {
				t.Fatalf("seed %d %s: encode %s: %v", seed, name, row, err)
			}
			file, err := format.Decode(data)
			if err != nil {
				t.Fatalf("seed %d %s: decode %s: %v", seed, name, row, err)
			}
			if len(file.Rows) != 1 || !file.Rows[0].Equal(row) {
				t.Fatalf("seed %d %s: round trip of %s gave %v", seed, name, row, file.Rows)
			}
		}
	}
}
