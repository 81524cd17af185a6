package hivesim

import (
	"fmt"
	"strings"

	"repro/internal/serde"
	"repro/internal/sqlval"
)

// Partition path handling. Hive's FileUtils.escapePathName percent-
// encodes every byte outside [A-Za-z0-9_.-] when building the
// "name=value" partition directories, and decodes %XX sequences on
// read. Spark historically used its own, narrower escaping — the
// divergence is a live candidate discrepancy the cross-test surfaces
// (see the partition tests in sparksim).

func hiveSafePathByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '.' || c == '-'
}

// EscapePartitionValue applies Hive's path escaping.
func EscapePartitionValue(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		c := v[i]
		if hiveSafePathByte(c) {
			b.WriteByte(c)
			continue
		}
		fmt.Fprintf(&b, "%%%02X", c)
	}
	return b.String()
}

// UnescapePartitionValue decodes %XX sequences; malformed sequences are
// kept literally, as Hive's decoder does.
func UnescapePartitionValue(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			hi, okHi := hexVal(s[i+1])
			lo, okLo := hexVal(s[i+2])
			if okHi && okLo {
				b.WriteByte(hi<<4 | lo)
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}

// PartitionDir renders the partition directory for the given partition
// values using the provided value escaper.
func PartitionDir(cols []serde.Column, values sqlval.Row, escape func(string) string) (string, error) {
	if len(cols) != len(values) {
		return "", fmt.Errorf("hive: %d partition values for %d partition columns", len(values), len(cols))
	}
	segs := make([]string, len(cols))
	for i, c := range cols {
		v, err := sqlval.Cast(values[i], sqlval.String, sqlval.CastHive)
		if err != nil {
			return "", err
		}
		raw := v.Str()
		if v.IsNull() {
			raw = "__HIVE_DEFAULT_PARTITION__"
		}
		segs[i] = c.Name + "=" + escape(raw)
	}
	return strings.Join(segs, "/"), nil
}

// ParsePartitionValues extracts partition values from a part-file path
// relative to the table location, decoding each with unescape and
// coercing to the partition column types under the given cast mode.
func ParsePartitionValues(table *Table, path string, unescape func(string) string, mode sqlval.CastMode) (sqlval.Row, error) {
	if len(table.PartitionCols) == 0 {
		return nil, nil
	}
	rel := strings.TrimPrefix(path, table.Location+"/")
	segs := strings.Split(rel, "/")
	if len(segs) != len(table.PartitionCols)+1 {
		return nil, fmt.Errorf("hive: path %q does not match %d partition levels", path, len(table.PartitionCols))
	}
	out := make(sqlval.Row, len(table.PartitionCols))
	for i, col := range table.PartitionCols {
		name, raw, ok := strings.Cut(segs[i], "=")
		if !ok || !strings.EqualFold(name, col.Name) {
			return nil, fmt.Errorf("hive: partition segment %q does not match column %q", segs[i], col.Name)
		}
		decoded := unescape(raw)
		if decoded == "__HIVE_DEFAULT_PARTITION__" {
			out[i] = sqlval.NullOf(col.Type)
			continue
		}
		v, _ := sqlval.Cast(sqlval.StringVal(decoded), col.Type, mode)
		out[i] = v
	}
	return out, nil
}
