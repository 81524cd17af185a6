package serde

import (
	"fmt"

	"repro/internal/sqlval"
)

// Avro is the Avro-like row format. Its write path applies Avro's type
// promotions, which are the root cause of two §8.2 discrepancies:
//
//   - TINYINT and SMALLINT have no Avro representation and are widened
//     to INT in the writer schema (SPARK-39075, HIVE-26533);
//   - CHAR(n)/VARCHAR(n) fold to STRING;
//   - map keys must be strings — non-string keys are rejected at write
//     time (HIVE-26531).
//
// Because the container records only the writer schema, readers see the
// promoted types, not the table's declared types.
type Avro struct{}

const avroMagic = "AVR1"

// Name implements Format.
func (Avro) Name() string { return "avro" }

// UnsupportedError reports a type the format cannot represent.
type UnsupportedError struct {
	Format string
	Type   sqlval.Type
	Reason string
}

// Error implements the error interface.
func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("%s: unsupported type %s: %s", e.Format, e.Type, e.Reason)
}

// avroWriterType maps a declared SQL type to the type Avro records.
func avroWriterType(t sqlval.Type) (sqlval.Type, error) {
	switch t.Kind {
	case sqlval.KindTinyInt, sqlval.KindSmallInt:
		return sqlval.Int, nil
	case sqlval.KindChar, sqlval.KindVarchar:
		return sqlval.String, nil
	case sqlval.KindArray:
		elem, err := avroWriterType(t.Elem())
		if err != nil {
			return sqlval.Null, err
		}
		return sqlval.ArrayType(elem), nil
	case sqlval.KindMap:
		if !t.Key().IsCharacter() {
			return sqlval.Null, &UnsupportedError{
				Format: "avro",
				Type:   t,
				Reason: "AvroTypeException: map keys must be STRING",
			}
		}
		val, err := avroWriterType(t.Val())
		if err != nil {
			return sqlval.Null, err
		}
		return sqlval.MapType(sqlval.String, val), nil
	case sqlval.KindStruct:
		fields := make([]sqlval.Field, len(t.Fields()))
		for i, f := range t.Fields() {
			ft, err := avroWriterType(f.Type)
			if err != nil {
				return sqlval.Null, err
			}
			fields[i] = sqlval.Field{Name: f.Name, Type: ft}
		}
		return sqlval.StructType(fields...), nil
	default:
		return t, nil
	}
}

// Encode implements Format. Writer metadata is dropped: the Avro
// container persists only its schema, which is why Spark's
// case-preserving schema metadata "only works with ORC and Parquet".
func (Avro) Encode(schema Schema, _ map[string]string, rows []sqlval.Row) ([]byte, error) {
	out := Schema{Columns: make([]Column, len(schema.Columns))}
	for i, c := range schema.Columns {
		wt, err := avroWriterType(c.Type)
		if err != nil {
			return nil, err
		}
		out.Columns[i] = Column{Name: c.Name, Type: wt}
	}
	promoted := make([]sqlval.Row, len(rows))
	for r, row := range rows {
		p := make(sqlval.Row, len(row))
		for i, v := range row {
			pv, err := sqlval.Cast(v, out.Columns[i].Type, sqlval.CastANSI)
			if err != nil {
				return nil, fmt.Errorf("avro: promoting column %q: %w", out.Columns[i].Name, err)
			}
			p[i] = pv
		}
		promoted[r] = p
	}
	return encodeContainer(avroMagic, out, nil, promoted)
}

// Decode implements Format, returning the writer (promoted) schema.
func (Avro) Decode(data []byte) (*File, error) {
	return decodeContainer(avroMagic, data)
}
