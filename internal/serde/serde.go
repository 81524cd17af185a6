// Package serde implements the three storage formats of the §8 case
// study — Avro-, ORC- and Parquet-like binary row formats — on a shared
// binary codec. Each format reproduces the documented behaviours that
// the paper's discrepancies are rooted in:
//
//   - Avro widens TINYINT/SMALLINT to INT in the writer schema, folds
//     CHAR/VARCHAR to STRING, and rejects non-string map keys.
//   - ORC optionally writes positional column names (_col0, _col1, …)
//     as Hive's writer does, losing the real names.
//   - Parquet carries writer metadata (e.g. Spark's case-preserving
//     schema and the writer time-zone) alongside the data.
//
// All formats are schema-on-write: Decode returns the schema the writer
// actually recorded, which is how several cross-system discrepancies
// become visible.
package serde

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/sqlval"
)

// Column is a named, typed column of a file schema.
type Column struct {
	Name string
	Type sqlval.Type
}

// Schema is the ordered column list recorded in a data file.
type Schema struct {
	Columns []Column
}

// ColumnNames returns the names in order.
func (s Schema) ColumnNames() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// Equal reports schema equality including column names and types.
func (s Schema) Equal(o Schema) bool {
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i].Name != o.Columns[i].Name || !s.Columns[i].Type.Equal(o.Columns[i].Type) {
			return false
		}
	}
	return true
}

// String renders the schema as "name:TYPE, ...".
func (s Schema) String() string {
	out := ""
	for i, c := range s.Columns {
		if i > 0 {
			out += ", "
		}
		out += c.Name + ":" + c.Type.String()
	}
	return out
}

// File is a decoded data file: the writer schema, writer metadata, and
// the row payload.
type File struct {
	Schema Schema
	Meta   map[string]string
	Rows   []sqlval.Row
}

// Format is a storage format: a named pair of encode/decode routines.
// Meta carries writer-side key/value metadata (Parquet and ORC persist
// it; Avro drops it, as the real container's schema-only header would).
type Format interface {
	// Name returns the lowercase format name ("avro", "orc", "parquet").
	Name() string
	// Encode serializes rows under the schema, applying the format's
	// write-side transformations. The returned file is self-describing.
	Encode(schema Schema, meta map[string]string, rows []sqlval.Row) ([]byte, error)
	// Decode parses a file produced by Encode.
	Decode(data []byte) (*File, error)
}

// ByName returns the format for a name, or an error for unknown names.
func ByName(name string) (Format, error) {
	switch name {
	case "avro":
		return Avro{}, nil
	case "orc":
		return ORC{}, nil
	case "parquet":
		return Parquet{}, nil
	default:
		return nil, fmt.Errorf("serde: unknown format %q", name)
	}
}

// --- binary codec -----------------------------------------------------

type writer struct {
	buf []byte
}

func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) byte(b byte) {
	w.buf = append(w.buf, b)
}

func (w *writer) float64(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

type reader struct {
	buf []byte
	pos int
}

var errCorrupt = fmt.Errorf("serde: corrupt file")

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errCorrupt
	}
	r.pos += n
	return v, nil
}

// count reads a collection length and validates it against the bytes
// remaining: every element needs at least one byte, so a larger count
// is corruption — without this check a hostile length would drive an
// enormous allocation.
func (r *reader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.buf)-r.pos) {
		return 0, errCorrupt
	}
	return int(v), nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errCorrupt
	}
	r.pos += n
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)-r.pos) {
		return nil, errCorrupt
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

func (r *reader) str() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

func (r *reader) byteVal() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, errCorrupt
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) float64() (float64, error) {
	if r.pos+8 > len(r.buf) {
		return 0, errCorrupt
	}
	bits := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return math.Float64frombits(bits), nil
}

// encodeSchema writes the schema as a column list of (name, DDL type).
func encodeSchema(w *writer, s Schema) {
	w.uvarint(uint64(len(s.Columns)))
	for _, c := range s.Columns {
		w.str(c.Name)
		w.str(c.Type.String())
	}
}

func decodeSchema(r *reader) (Schema, error) {
	n, err := r.count()
	if err != nil {
		return Schema{}, err
	}
	s := Schema{Columns: make([]Column, n)}
	for i := range s.Columns {
		name, err := r.str()
		if err != nil {
			return Schema{}, err
		}
		ddl, err := r.str()
		if err != nil {
			return Schema{}, err
		}
		t, err := sqlval.ParseType(ddl)
		if err != nil {
			return Schema{}, fmt.Errorf("serde: bad column type %q: %v", ddl, err)
		}
		s.Columns[i] = Column{Name: name, Type: t}
	}
	return s, nil
}

func encodeMeta(w *writer, meta map[string]string, keys []string) {
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.str(meta[k])
	}
}

func decodeMeta(r *reader) (map[string]string, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	meta := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.str()
		if err != nil {
			return nil, err
		}
		meta[k] = v
	}
	return meta, nil
}

// encodeValue writes v interpreted under its declared type t.
func encodeValue(w *writer, v sqlval.Value, t sqlval.Type) error {
	if v.IsNull() {
		w.byte(0)
		return nil
	}
	w.byte(1)
	switch t.Kind {
	case sqlval.KindBoolean:
		if v.Bool() {
			w.byte(1)
		} else {
			w.byte(0)
		}
	case sqlval.KindTinyInt, sqlval.KindSmallInt, sqlval.KindInt, sqlval.KindBigInt,
		sqlval.KindDate, sqlval.KindTimestamp:
		w.varint(v.Int())
	case sqlval.KindFloat, sqlval.KindDouble:
		w.float64(v.Float())
	case sqlval.KindDecimal:
		d := v.Dec()
		w.varint(d.Unscaled)
		w.varint(int64(d.Scale))
	case sqlval.KindString, sqlval.KindChar, sqlval.KindVarchar, sqlval.KindBinary:
		w.str(v.Str())
	case sqlval.KindArray:
		items := v.Elems()
		w.uvarint(uint64(len(items)))
		for _, e := range items {
			if err := encodeValue(w, e, t.Elem()); err != nil {
				return err
			}
		}
	case sqlval.KindMap:
		w.uvarint(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			if err := encodeValue(w, v.Key(i), t.Key()); err != nil {
				return err
			}
			if err := encodeValue(w, v.Val(i), t.Val()); err != nil {
				return err
			}
		}
	case sqlval.KindStruct:
		vals := v.Elems()
		for i, f := range t.Fields() {
			if i >= len(vals) {
				return fmt.Errorf("serde: struct value missing field %q", f.Name)
			}
			if err := encodeValue(w, vals[i], f.Type); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("serde: cannot encode kind %v", t.Kind)
	}
	return nil
}

func decodeValue(r *reader, t sqlval.Type) (sqlval.Value, error) {
	present, err := r.byteVal()
	if err != nil {
		return sqlval.Value{}, err
	}
	if present == 0 {
		return sqlval.NullOf(t), nil
	}
	switch t.Kind {
	case sqlval.KindBoolean:
		b, err := r.byteVal()
		if err != nil {
			return sqlval.Value{}, err
		}
		return sqlval.BoolVal(b != 0), nil
	case sqlval.KindTinyInt, sqlval.KindSmallInt, sqlval.KindInt, sqlval.KindBigInt,
		sqlval.KindDate, sqlval.KindTimestamp:
		i, err := r.varint()
		if err != nil {
			return sqlval.Value{}, err
		}
		return sqlval.IntVal(t, i), nil
	case sqlval.KindFloat, sqlval.KindDouble:
		f, err := r.float64()
		if err != nil {
			return sqlval.Value{}, err
		}
		if t.Kind == sqlval.KindFloat {
			return sqlval.FloatVal(f), nil
		}
		return sqlval.DoubleVal(f), nil
	case sqlval.KindDecimal:
		u, err := r.varint()
		if err != nil {
			return sqlval.Value{}, err
		}
		s, err := r.varint()
		if err != nil {
			return sqlval.Value{}, err
		}
		if s < 0 || s > sqlval.MaxDecimalPrecision {
			return sqlval.Value{}, fmt.Errorf("serde: decimal scale %d outside [0, %d]", s, sqlval.MaxDecimalPrecision)
		}
		return sqlval.DecimalVal(t, sqlval.Decimal{Unscaled: u, Scale: int(s)}), nil
	case sqlval.KindString, sqlval.KindChar, sqlval.KindVarchar:
		s, err := r.str()
		if err != nil {
			return sqlval.Value{}, err
		}
		switch t.Kind {
		case sqlval.KindChar:
			return sqlval.CharVal(s, t.Length()), nil
		case sqlval.KindVarchar:
			return sqlval.VarcharVal(s, t.Length()), nil
		}
		return sqlval.StringVal(s), nil
	case sqlval.KindBinary:
		b, err := r.bytes()
		if err != nil {
			return sqlval.Value{}, err
		}
		return sqlval.BinaryVal(b), nil
	case sqlval.KindArray:
		n, err := r.count()
		if err != nil {
			return sqlval.Value{}, err
		}
		items, err := decodeValues(r, n, func(int) sqlval.Type { return t.Elem() })
		if err != nil {
			return sqlval.Value{}, err
		}
		return sqlval.ArrayVal(t, items...), nil
	case sqlval.KindMap:
		n, err := r.count()
		if err != nil {
			return sqlval.Value{}, err
		}
		entries, err := decodeValues(r, 2*n, func(i int) sqlval.Type {
			if i%2 == 0 {
				return t.Key()
			}
			return t.Val()
		})
		if err != nil {
			return sqlval.Value{}, err
		}
		return sqlval.MapVal(t, entries...), nil
	case sqlval.KindStruct:
		fields := t.Fields()
		vals, err := decodeValues(r, len(fields), func(i int) sqlval.Type { return fields[i].Type })
		if err != nil {
			return sqlval.Value{}, err
		}
		return sqlval.StructVal(t, vals...), nil
	default:
		return sqlval.Value{}, fmt.Errorf("serde: cannot decode kind %v", t.Kind)
	}
}

// decodeValues decodes n values in a row, the i-th under typeAt(i).
func decodeValues(r *reader, n int, typeAt func(int) sqlval.Type) ([]sqlval.Value, error) {
	out := make([]sqlval.Value, n)
	for i := range out {
		v, err := decodeValue(r, typeAt(i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// encodeContainer writes the common container layout used by all three
// formats: magic, schema, metadata (sorted keys), row count, rows.
func encodeContainer(magic string, schema Schema, meta map[string]string, rows []sqlval.Row) ([]byte, error) {
	w := &writer{}
	w.buf = append(w.buf, magic...)
	encodeSchema(w, schema)
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	encodeMeta(w, meta, keys)
	if len(schema.Columns) == 0 && len(rows) > 0 {
		// A row of no columns takes no bytes, which the decoder's
		// count check would read as a forged row count.
		return nil, fmt.Errorf("serde: %d rows under a schema with no columns", len(rows))
	}
	w.uvarint(uint64(len(rows)))
	for _, row := range rows {
		if len(row) != len(schema.Columns) {
			return nil, fmt.Errorf("serde: row has %d values, schema has %d columns", len(row), len(schema.Columns))
		}
		for i, v := range row {
			if err := encodeValue(w, v, schema.Columns[i].Type); err != nil {
				return nil, err
			}
		}
	}
	return w.buf, nil
}

func decodeContainer(magic string, data []byte) (*File, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("serde: bad magic, not a %s file", magic)
	}
	r := &reader{buf: data, pos: len(magic)}
	schema, err := decodeSchema(r)
	if err != nil {
		return nil, err
	}
	meta, err := decodeMeta(r)
	if err != nil {
		return nil, err
	}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if len(schema.Columns) == 0 && n > 0 {
		return nil, errCorrupt
	}
	rows := make([]sqlval.Row, n)
	for i := range rows {
		row := make(sqlval.Row, len(schema.Columns))
		for j := range row {
			row[j], err = decodeValue(r, schema.Columns[j].Type)
			if err != nil {
				return nil, err
			}
		}
		rows[i] = row
	}
	return &File{Schema: schema, Meta: meta, Rows: rows}, nil
}
