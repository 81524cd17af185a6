package serde

import (
	"testing"

	"repro/internal/sqlval"
)

// decimalFile is a one-row file of one DECIMAL(10,2) column whose value
// records the given scale, as no encoder of a valid value writes it.
func decimalFile(magic string, scale int64) []byte {
	w := &writer{}
	w.buf = append(w.buf, magic...)
	encodeSchema(w, Schema{Columns: []Column{{Name: "d", Type: sqlval.DecimalType(10, 2)}}})
	encodeMeta(w, nil, nil)
	w.uvarint(1)
	w.byte(1)
	w.varint(12345)
	w.varint(scale)
	return w.buf
}

// FuzzDecode asserts decoder totality over arbitrary bytes for all
// three formats: error or well-formed file, never a panic or runaway
// allocation. Every accepted file must also render and encode again:
// ORC and Parquet re-encode it exactly, and Avro either rejects it or
// writes a file that decodes.
func FuzzDecode(f *testing.F) {
	valid, err := (Parquet{}).Encode(sampleSchema(), map[string]string{"k": "v"}, sampleRows())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("PAR1"))
	f.Add([]byte("ORC1garbage"))
	f.Add([]byte{})
	f.Add(decimalFile(orcMagic, 300))
	f.Add(decimalFile(parquetMagic, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range Formats() {
			format, _ := ByName(name)
			file, err := format.Decode(data)
			if err != nil {
				continue
			}
			for _, row := range file.Rows {
				if len(row) != len(file.Schema.Columns) {
					t.Fatalf("%s: malformed decode accepted", name)
				}
				_ = row.String()
			}
			again, err := format.Encode(file.Schema, file.Meta, file.Rows)
			if err != nil {
				if name == "avro" {
					continue
				}
				t.Fatalf("%s: re-encoding an accepted file: %v", name, err)
			}
			back, err := format.Decode(again)
			if err != nil {
				t.Fatalf("%s: decoding a re-encoded file: %v", name, err)
			}
			if name != "avro" && !sameRows(back.Rows, file.Rows) {
				t.Fatalf("%s: re-encoded rows %v, decoded %v", name, back.Rows, file.Rows)
			}
		}
	})
}

func sameRows(a, b []sqlval.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// A decoded decimal keeps its file's scale, so a scale no decimal can
// have is corruption: before the check, ORC and Parquet accepted a
// scale of 300 and the value's String panicked in Pow10.
func TestDecodeRejectsDecimalScaleOutOfRange(t *testing.T) {
	for _, name := range Formats() {
		format, _ := ByName(name)
		magic := map[string]string{"avro": avroMagic, "orc": orcMagic, "parquet": parquetMagic}[name]
		for _, scale := range []int64{300, 19, -1} {
			if _, err := format.Decode(decimalFile(magic, scale)); err == nil {
				t.Errorf("%s: decimal scale %d accepted", name, scale)
			}
		}
		file, err := format.Decode(decimalFile(magic, sqlval.MaxDecimalPrecision))
		if err != nil {
			t.Fatalf("%s: decimal scale %d rejected: %v", name, sqlval.MaxDecimalPrecision, err)
		}
		if got := file.Rows[0][0].String(); got != "0.000000000000012345" {
			t.Errorf("%s: scale-18 decimal = %s", name, got)
		}
	}
}
