package sparksim

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/csi"
	"repro/internal/hdfssim"
	"repro/internal/hivesim"
	"repro/internal/obs"
	"repro/internal/serde"
	"repro/internal/sqlval"
)

// sparkEscapePartitionValue is Spark's partition-path escaping: only
// the path-critical characters are encoded, unlike Hive's exhaustive
// FileUtils escaping — values with spaces or other specials land in
// differently-spelled directories, a live candidate discrepancy.
func sparkEscapePartitionValue(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '/', '=', '%':
			fmt.Fprintf(&b, "%%%02X", c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// sparkUnescapePartitionValue: Spark's reader takes the directory
// segment as-is for the characters its writer leaves raw, decoding only
// the three it escapes.
func sparkUnescapePartitionValue(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			seq := s[i+1 : i+3]
			switch seq {
			case "2F", "2f":
				b.WriteByte('/')
				i += 2
				continue
			case "3D", "3d":
				b.WriteByte('=')
				i += 2
				continue
			case "25":
				b.WriteByte('%')
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// truncate removes every part file of the table (INSERT OVERWRITE).
func (s *Session) truncate(table *hivesim.Table) error {
	for _, path := range s.fs.List(table.Location) {
		if err := s.fs.Delete(path); err != nil {
			return err
		}
	}
	return nil
}

// writeRows appends rows to the table through Spark's writer path.
// fileSchema is the schema the file is written under: the metastore
// schema for SparkSQL inserts, the case-preserving Spark schema for
// DataFrame saves. legacyDecimal selects the DataFrame writer's binary
// decimal encoding.
func (s *Session) writeRows(sp *obs.Span, table *hivesim.Table, fileSchema serde.Schema, rows []sqlval.Row, legacyDecimal bool) error {
	if err := s.checkAvro(table.Format); err != nil {
		return err
	}
	meta := map[string]string{
		serde.MetaWriterEngine: "spark",
		serde.MetaSparkSchema:  encodeSchemaDDL(fileSchema),
	}
	tzOffset := int64(0)
	if table.Format == "parquet" {
		// Spark's INT96 writer stores timestamps adjusted out of the
		// session zone and records the zone in writer metadata; readers
		// that ignore the metadata (Hive) see shifted values.
		tzOffset = s.conf.TimeZoneOffsetSeconds()
		meta[serde.MetaWriterTimezone] = strconv.FormatInt(tzOffset, 10)
	}
	writeTransform := func(v sqlval.Value) sqlval.Value {
		if s.conf.Bool(ConfDatetimeRebaseLegacy) && v.Kind() == sqlval.KindDate {
			return sqlval.DateVal(sqlval.RebaseGregorianToHybrid(v.Int()))
		}
		if tzOffset != 0 && v.Kind() == sqlval.KindTimestamp {
			return sqlval.TimestampVal(v.Int() - tzOffset*sqlval.MicrosPerSecond)
		}
		return v
	}

	outSchema := serde.Schema{Columns: append([]serde.Column(nil), fileSchema.Columns...)}
	useLegacyDecimal := legacyDecimal && s.conf.Bool(ConfWriteLegacyDecimal)
	legacyCols := map[int]bool{}
	if useLegacyDecimal {
		for i, c := range outSchema.Columns {
			if c.Type.Kind == sqlval.KindDecimal {
				outSchema.Columns[i] = serde.Column{Name: c.Name, Type: sqlval.Binary}
				legacyCols[i] = true
			}
		}
	}

	nData := len(outSchema.Columns)
	groups := map[string][]sqlval.Row{}
	var order []string
	for _, row := range rows {
		if len(row) != nData+len(table.PartitionCols) {
			return fmt.Errorf("spark: row has %d values, schema has %d columns", len(row), nData+len(table.PartitionCols))
		}
		dir := ""
		if len(table.PartitionCols) > 0 {
			var err error
			dir, err = hivesim.PartitionDir(table.PartitionCols, row[nData:], sparkEscapePartitionValue)
			if err != nil {
				return err
			}
		}
		out := make(sqlval.Row, nData)
		for i := 0; i < nData; i++ {
			v := row[i]
			if legacyCols[i] {
				if v.IsNull() {
					out[i] = sqlval.NullOf(sqlval.Binary)
				} else {
					out[i] = sqlval.BinaryVal(encodeLegacyDecimal(v.Dec()))
				}
				continue
			}
			out[i] = sqlval.TransformLeaves(v, writeTransform)
		}
		if _, ok := groups[dir]; !ok {
			order = append(order, dir)
		}
		groups[dir] = append(groups[dir], out)
	}

	format, err := serde.ByName(table.Format) // Spark's ORC writer keeps real names
	if err != nil {
		return err
	}
	for _, dir := range order {
		data, err := format.Encode(outSchema, meta, groups[dir])
		if sp != nil {
			sp.Child(csi.SerDe, csi.DataPlane, table.Format+"/encode").
				Set("rows", strconv.Itoa(len(groups[dir]))).Fail(err).End()
		}
		if err != nil {
			return err
		}
		path := s.ms.NextPartIn(table, dir)
		err = s.fs.Write(path, data, hdfssim.WriteOptions{Overwrite: true})
		if sp != nil {
			sp.Child(csi.HDFS, csi.DataPlane, "warehouse/write").
				Set("path", path).Fail(err).End()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readTable scans the table's part files and converts them to the given
// catalog schema. In strict mode the Avro deserializer requires the
// file schema to reconcile exactly (SPARK-39075); lenient mode is the
// Hive-schema fallback path.
func (s *Session) readTable(sp *obs.Span, table *hivesim.Table, schema serde.Schema, strict bool) ([]sqlval.Row, error) {
	if err := s.checkAvro(table.Format); err != nil {
		return nil, err
	}
	format, err := serde.ByName(table.Format)
	if err != nil {
		return nil, err
	}
	var out []sqlval.Row
	for _, path := range s.fs.List(table.Location) {
		data, err := s.fs.Read(path)
		if sp != nil {
			sp.Child(csi.HDFS, csi.DataPlane, "warehouse/read").
				Set("path", path).Fail(err).End()
		}
		if err != nil {
			return nil, err
		}
		// One SerDe span covers the decode and the schema conversion of
		// the file's rows: a reconciliation failure (SPARK-39075) is a
		// SerDe-boundary failure.
		var dec *obs.Span
		if sp != nil {
			dec = sp.Child(csi.SerDe, csi.DataPlane, table.Format+"/decode")
		}
		file, err := format.Decode(data)
		if err != nil {
			dec.Fail(err).End()
			return nil, err
		}
		partVals, err := hivesim.ParsePartitionValues(table, path, sparkUnescapePartitionValue, sqlval.CastLegacy)
		if err != nil {
			dec.Fail(err).End()
			return nil, err
		}
		resolve := s.columnResolver(file.Schema, schema.Columns)
		readTransform := s.readTransform(table.Format, file.Meta)
		for _, fileRow := range file.Rows {
			row := make(sqlval.Row, len(schema.Columns), len(schema.Columns)+len(partVals))
			for i, col := range schema.Columns {
				idx := resolve[i]
				if idx < 0 {
					row[i] = sqlval.NullOf(col.Type)
					continue
				}
				v, err := s.convertRead(table, col, file.Schema.Columns[idx].Type, fileRow[idx], strict, readTransform)
				if err != nil {
					dec.Fail(err).End()
					return nil, err
				}
				row[i] = v
			}
			row = append(row, partVals.Clone()...)
			out = append(out, row)
		}
		dec.End()
	}
	return out, nil
}

// readTransform builds the per-leaf reinterpretation for a file:
// time-zone restoration using the writer metadata, and hybrid-calendar
// reading when the legacy rebase config is on.
func (s *Session) readTransform(formatName string, meta map[string]string) func(sqlval.Value) sqlval.Value {
	tzOffset := int64(0)
	if formatName == "parquet" {
		if raw, ok := meta[serde.MetaWriterTimezone]; ok {
			if o, err := strconv.ParseInt(raw, 10, 64); err == nil {
				tzOffset = o
			}
		}
	}
	rebase := s.conf.Bool(ConfDatetimeRebaseLegacy)
	return func(v sqlval.Value) sqlval.Value {
		if v.Kind() == sqlval.KindTimestamp && tzOffset != 0 {
			return sqlval.TimestampVal(v.Int() + tzOffset*sqlval.MicrosPerSecond)
		}
		if v.Kind() == sqlval.KindDate && rebase {
			return sqlval.DateVal(sqlval.RebaseHybridToGregorian(v.Int()))
		}
		return v
	}
}

func (s *Session) convertRead(table *hivesim.Table, col serde.Column, fileType sqlval.Type, v sqlval.Value,
	strict bool, transform func(sqlval.Value) sqlval.Value) (sqlval.Value, error) {
	// Spark decodes its own legacy binary decimals on every path.
	if fileType.Kind == sqlval.KindBinary && col.Type.Kind == sqlval.KindDecimal {
		if v.IsNull() {
			return sqlval.NullOf(col.Type), nil
		}
		d, err := decodeLegacyDecimal(v.Str())
		if err != nil {
			return sqlval.Value{}, err
		}
		out, cerr := sqlval.Cast(sqlval.DecimalVal(sqlval.DecimalType(d.Precision(), d.Scale), d), col.Type, sqlval.CastLegacy)
		if cerr != nil {
			return sqlval.Value{}, cerr
		}
		return out, nil
	}
	if strict && table.Format == "avro" {
		if err := avroReconcile(table.Name, col.Name, fileType, col.Type); err != nil {
			return sqlval.Value{}, err
		}
	}
	v = sqlval.TransformLeaves(v, transform)
	out, _ := sqlval.Cast(v, col.Type, sqlval.CastLegacy)
	// Spark does not pad CHAR on the read side unless configured to
	// (SPARK-40616): strip the stored pad.
	if out.Kind() == sqlval.KindChar && !out.IsNull() && !s.conf.Bool(ConfReadSideCharPadding) {
		out = sqlval.CharVal(strings.TrimRight(out.Str(), " "), out.Type().Length())
	}
	return out, nil
}

// avroReconcile implements the strict Avro schema reconciliation of
// Spark's DataFrame reader: only Avro's documented promotions are
// accepted, so an INT file column cannot be read back as the BYTE or
// SHORT the catalog declares (SPARK-39075).
func avroReconcile(tableName, colName string, file, catalog sqlval.Type) error {
	mismatch := func() error {
		return &IncompatibleSchemaError{Table: tableName, Column: colName, FileType: file, CatalogType: catalog}
	}
	switch catalog.Kind {
	case sqlval.KindTinyInt, sqlval.KindSmallInt:
		// Avro has no 8/16-bit integers; the deserializer misses the
		// INT-to-BYTE/SHORT case and throws.
		return mismatch()
	case sqlval.KindBigInt:
		if file.Kind == sqlval.KindInt || file.Kind == sqlval.KindBigInt {
			return nil
		}
		return mismatch()
	case sqlval.KindDouble:
		if file.Kind == sqlval.KindFloat || file.Kind == sqlval.KindDouble {
			return nil
		}
		return mismatch()
	case sqlval.KindString, sqlval.KindChar, sqlval.KindVarchar:
		if file.IsCharacter() {
			return nil
		}
		return mismatch()
	case sqlval.KindArray:
		if file.Kind != sqlval.KindArray {
			return mismatch()
		}
		return avroReconcile(tableName, colName, file.Elem(), catalog.Elem())
	case sqlval.KindMap:
		if file.Kind != sqlval.KindMap {
			return mismatch()
		}
		return avroReconcile(tableName, colName, file.Val(), catalog.Val())
	case sqlval.KindStruct:
		if file.Kind != sqlval.KindStruct || len(file.Fields()) != len(catalog.Fields()) {
			return mismatch()
		}
		fileFields := file.Fields()
		for i, f := range catalog.Fields() {
			if err := avroReconcile(tableName, colName, fileFields[i].Type, f.Type); err != nil {
				return err
			}
		}
		return nil
	default:
		if file.Kind == catalog.Kind {
			return nil
		}
		return mismatch()
	}
}

// columnResolver maps catalog columns to file column indices: by
// position for Hive's positional ORC names, otherwise by name —
// case-insensitively unless spark.sql.caseSensitive is set.
func (s *Session) columnResolver(file serde.Schema, target []serde.Column) []int {
	positional := len(file.Columns) > 0
	for i, c := range file.Columns {
		if c.Name != fmt.Sprintf("_col%d", i) {
			positional = false
			break
		}
	}
	caseSensitive := s.conf.Bool(ConfCaseSensitive)
	out := make([]int, len(target))
	for i := range target {
		out[i] = -1
		if positional {
			if i < len(file.Columns) {
				out[i] = i
			}
			continue
		}
		for j, fc := range file.Columns {
			if fc.Name == target[i].Name || (!caseSensitive && strings.EqualFold(fc.Name, target[i].Name)) {
				out[i] = j
				break
			}
		}
	}
	return out
}
