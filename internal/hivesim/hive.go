package hivesim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/csi"
	"repro/internal/hdfssim"
	"repro/internal/obs"
	"repro/internal/serde"
	"repro/internal/sqlparse"
	"repro/internal/sqlval"
)

// DefaultFormat is the storage format used when DDL omits STORED AS.
const DefaultFormat = "orc"

// Result is the outcome of a HiveQL statement.
type Result struct {
	Columns  []serde.Column
	Rows     []sqlval.Row
	Warnings []string
}

// SerDeError is a read-side deserialization failure, Hive's analogue of
// SerDeException. The §8.2 "cannot read what was written" discrepancy
// SPARK-39158 surfaces as this error when Hive encounters Spark's
// legacy binary decimal encoding.
type SerDeError struct {
	Table  string
	Column string
	Detail string
}

// Error implements the error interface.
func (e *SerDeError) Error() string {
	return fmt.Sprintf("hive: SerDeException reading %s.%s: %s", e.Table, e.Column, e.Detail)
}

// Hive is the simulated Hive engine: a HiveQL front end over the shared
// metastore and warehouse.
type Hive struct {
	ms      *Metastore
	fs      *hdfssim.FileSystem
	tracer  *obs.Tracer
	version string
}

// New creates a Hive engine over the given file system and metastore.
// The metastore is shared with Spark's Hive connector in cross-system
// deployments.
func New(fs *hdfssim.FileSystem, ms *Metastore) *Hive {
	return &Hive{ms: ms, fs: fs}
}

// Metastore returns the engine's metastore.
func (h *Hive) Metastore() *Metastore { return h.ms }

// FileSystem returns the warehouse file system.
func (h *Hive) FileSystem() *hdfssim.FileSystem { return h.fs }

// SetTracer attaches an observability tracer; spans are threaded
// explicitly through ExecuteSpan so concurrent callers don't race.
func (h *Hive) SetTracer(tr *obs.Tracer) { h.tracer = tr }

// Execute runs one HiveQL statement.
func (h *Hive) Execute(query string) (*Result, error) {
	return h.ExecuteSpan(nil, query)
}

// ExecuteSpan runs one HiveQL statement under an explicit parent span,
// emitting a Hive data-plane span with SerDe/warehouse children. With
// no tracer attached this is exactly Execute.
func (h *Hive) ExecuteSpan(parent *obs.Span, query string) (*Result, error) {
	sp := h.tracer.Span(parent, csi.Hive, csi.DataPlane, "hiveql")
	res, err := h.dispatch(sp, query)
	sp.Fail(err).End()
	return res, err
}

func (h *Hive) dispatch(sp *obs.Span, query string) (*Result, error) {
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sqlparse.CreateTable:
		return h.createTable(sp, s)
	case *sqlparse.DropTable:
		err := h.ms.DropTable(s.Table, s.IfExists)
		sp.Child(csi.Hive, csi.ManagementPlane, "metastore/drop-table").
			Set("table", s.Table).Fail(err).End()
		return &Result{}, err
	case *sqlparse.Insert:
		return h.insert(sp, s)
	case *sqlparse.Select:
		return h.selectRows(sp, s)
	default:
		return nil, fmt.Errorf("hive: unsupported statement %T", stmt)
	}
}

func (h *Hive) createTable(sp *obs.Span, s *sqlparse.CreateTable) (*Result, error) {
	format := s.Format
	if format == "" {
		format = DefaultFormat
	}
	if _, err := serde.ByName(format); err != nil {
		return nil, err
	}
	cols := make([]serde.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = serde.Column{Name: c.Name, Type: c.Type}
	}
	if format == "avro" {
		cols = AvroMetastoreColumns(cols)
	}
	partCols := make([]serde.Column, len(s.PartitionedBy))
	for i, c := range s.PartitionedBy {
		partCols[i] = serde.Column{Name: c.Name, Type: c.Type}
	}
	_, err := h.ms.CreateTablePartitioned(s.Table, cols, partCols, format, s.Props)
	sp.Child(csi.Hive, csi.DataPlane, "metastore/create-table").
		Set("table", s.Table).Set("format", format).Fail(err).End()
	if err != nil && s.IfNotExists && strings.Contains(err.Error(), "already exists") {
		return &Result{}, nil
	}
	return &Result{}, err
}

// AvroMetastoreColumns applies the Hive Avro SerDe's schema derivation
// to metastore columns: TINYINT and SMALLINT have no Avro type and are
// registered as INT (the HIVE-26533 behaviour). The derivation recurses
// into nested types.
func AvroMetastoreColumns(cols []serde.Column) []serde.Column {
	out := make([]serde.Column, len(cols))
	for i, c := range cols {
		out[i] = serde.Column{Name: c.Name, Type: avroDerive(c.Type)}
	}
	return out
}

func avroDerive(t sqlval.Type) sqlval.Type {
	switch t.Kind {
	case sqlval.KindTinyInt, sqlval.KindSmallInt:
		return sqlval.Int
	case sqlval.KindArray:
		return sqlval.ArrayType(avroDerive(t.Elem()))
	case sqlval.KindMap:
		return sqlval.MapType(t.Key(), avroDerive(t.Val()))
	case sqlval.KindStruct:
		fields := make([]sqlval.Field, len(t.Fields()))
		for i, f := range t.Fields() {
			fields[i] = sqlval.Field{Name: f.Name, Type: avroDerive(f.Type)}
		}
		return sqlval.StructType(fields...)
	default:
		return t
	}
}

func (h *Hive) insert(sp *obs.Span, s *sqlparse.Insert) (*Result, error) {
	table, err := h.ms.GetTable(s.Table)
	sp.Child(csi.Hive, csi.DataPlane, "metastore/get-table").
		Set("table", s.Table).Fail(err).End()
	if err != nil {
		return nil, err
	}
	allCols := table.AllColumns()
	rows := make([]sqlval.Row, 0, len(s.Rows))
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(allCols) {
			return nil, fmt.Errorf("hive: INSERT has %d values, table %s has %d columns",
				len(exprRow), table.Name, len(allCols))
		}
		row := make(sqlval.Row, len(exprRow))
		for i, e := range exprRow {
			v, err := sqlparse.Eval(e, sqlval.CastHive)
			if err != nil {
				return nil, err
			}
			// Hive's lenient coercion: failures become NULL silently.
			coerced, _ := sqlval.Cast(v, allCols[i].Type, sqlval.CastHive)
			row[i] = coerced
		}
		rows = append(rows, row)
	}
	if s.Overwrite {
		if err := h.Truncate(table); err != nil {
			return nil, err
		}
	}
	if err := h.writeRows(sp, table, rows); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// Truncate removes every part file of the table.
func (h *Hive) Truncate(table *Table) error {
	for _, path := range h.fs.List(table.Location) {
		if err := h.fs.Delete(path); err != nil {
			return err
		}
	}
	return nil
}

// WriteRows appends rows (already coerced to the table schema; for
// partitioned tables the partition values trail the data columns) to
// the table through Hive's writer personality: positional ORC names,
// hybrid-calendar date rebasing, and Hive's partition-path escaping.
func (h *Hive) WriteRows(table *Table, rows []sqlval.Row) error {
	return h.writeRows(nil, table, rows)
}

func (h *Hive) writeRows(sp *obs.Span, table *Table, rows []sqlval.Row) error {
	format, err := h.writerFor(table.Format)
	if err != nil {
		return err
	}
	// Group rows by partition directory ("" for unpartitioned tables).
	nData := len(table.Columns)
	groups := map[string][]sqlval.Row{}
	var order []string
	for _, row := range rows {
		dir := ""
		if len(table.PartitionCols) > 0 {
			dir, err = PartitionDir(table.PartitionCols, row[nData:], EscapePartitionValue)
			if err != nil {
				return err
			}
		}
		out := make(sqlval.Row, nData)
		for j := 0; j < nData; j++ {
			out[j] = hiveWriteTransform(row[j])
		}
		if _, ok := groups[dir]; !ok {
			order = append(order, dir)
		}
		groups[dir] = append(groups[dir], out)
	}
	meta := map[string]string{serde.MetaWriterEngine: "hive"}
	for _, dir := range order {
		data, err := format.Encode(table.Schema(), meta, groups[dir])
		if sp != nil {
			sp.Child(csi.SerDe, csi.DataPlane, table.Format+"/encode").
				Set("rows", strconv.Itoa(len(groups[dir]))).Fail(err).End()
		}
		if err != nil {
			return err
		}
		path := h.ms.NextPartIn(table, dir)
		err = h.fs.Write(path, data, hdfssim.WriteOptions{Overwrite: true})
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

func (h *Hive) writerFor(name string) (serde.Format, error) {
	switch name {
	case "orc":
		// Hive's ORC writer records positional column names (SPARK-21686).
		return serde.ORC{PositionalNames: true}, nil
	default:
		return serde.ByName(name)
	}
}

// hiveWriteTransform rebases DATE values into the hybrid calendar that
// Hive's writers use, recursing into nested values.
func hiveWriteTransform(v sqlval.Value) sqlval.Value {
	return sqlval.TransformLeaves(v, sqlval.RebaseDates(sqlval.RebaseGregorianToHybrid))
}

// hiveReadTransform reinterprets stored day counts through the hybrid
// calendar on read.
func hiveReadTransform(v sqlval.Value) sqlval.Value {
	return sqlval.TransformLeaves(v, sqlval.RebaseDates(sqlval.RebaseHybridToGregorian))
}

func (h *Hive) selectRows(sp *obs.Span, s *sqlparse.Select) (*Result, error) {
	table, err := h.ms.GetTable(s.Table)
	sp.Child(csi.Hive, csi.DataPlane, "metastore/get-table").
		Set("table", s.Table).Fail(err).End()
	if err != nil {
		return nil, err
	}
	rows, err := h.readRows(sp, table)
	if err != nil {
		return nil, err
	}
	return Project(table.AllColumns(), rows, s, sqlval.CastHive)
}

// ReadRows scans every part file of the table and converts the stored
// rows to the metastore schema under Hive's read personality.
func (h *Hive) ReadRows(table *Table) ([]sqlval.Row, error) {
	return h.readRows(nil, table)
}

func (h *Hive) readRows(sp *obs.Span, table *Table) ([]sqlval.Row, error) {
	format, err := serde.ByName(table.Format)
	if err != nil {
		return nil, err
	}
	var out []sqlval.Row
	for _, path := range h.fs.List(table.Location) {
		data, err := h.fs.Read(path)
		if sp != nil {
			sp.Child(csi.HDFS, csi.DataPlane, "warehouse/read").
				Set("path", path).Fail(err).End()
		}
		if err != nil {
			return nil, err
		}
		// One SerDe span covers the decode and row conversion: a
		// SerDeException (e.g. SPARK-39158) is a SerDe-boundary failure.
		var dec *obs.Span
		if sp != nil {
			dec = sp.Child(csi.SerDe, csi.DataPlane, table.Format+"/decode")
		}
		file, err := format.Decode(data)
		if err != nil {
			dec.Fail(err).End()
			return nil, err
		}
		partVals, err := ParsePartitionValues(table, path, UnescapePartitionValue, sqlval.CastHive)
		if err != nil {
			dec.Fail(err).End()
			return nil, err
		}
		resolve := columnResolver(file.Schema, table.Columns)
		for _, fileRow := range file.Rows {
			row := make(sqlval.Row, len(table.Columns), len(table.Columns)+len(partVals))
			for i, col := range table.Columns {
				idx := resolve[i]
				if idx < 0 {
					row[i] = sqlval.NullOf(col.Type)
					continue
				}
				v, err := h.convertForRead(table, col, file.Schema.Columns[idx].Type, fileRow[idx])
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

// convertForRead maps a stored value to the declared column type with
// Hive's read-side behaviours.
func (h *Hive) convertForRead(table *Table, col serde.Column, fileType sqlval.Type, v sqlval.Value) (sqlval.Value, error) {
	// Spark's legacy binary decimal encoding is opaque to Hive's
	// deserializers (SPARK-39158).
	if fileType.Kind == sqlval.KindBinary && col.Type.Kind == sqlval.KindDecimal {
		return sqlval.Value{}, &SerDeError{
			Table:  table.Name,
			Column: col.Name,
			Detail: fmt.Sprintf("cannot deserialize BINARY as %s (unannotated legacy decimal)", col.Type),
		}
	}
	v = hiveReadTransform(v)
	profile := h.profile()
	// Pre-HIVE-12192 releases interpret Parquet INT96 timestamps in the
	// server's local zone rather than UTC; the modeled server runs in
	// America/Los_Angeles.
	if table.Format == "parquet" && profile.ParquetLocalZoneSeconds != 0 {
		off := profile.ParquetLocalZoneSeconds
		v = sqlval.TransformLeaves(v, sqlval.ShiftTimestamps(off*sqlval.MicrosPerSecond))
	}
	// Hive 3's ORC reader folds a struct whose members are all NULL into
	// a NULL struct (the SPARK-40637 model); Hive 2.3 returns the struct
	// with NULL members.
	if table.Format == "orc" && profile.OrcStructFold && v.Kind() == sqlval.KindStruct && !v.IsNull() {
		allNull := len(v.Elems()) > 0
		for _, fv := range v.Elems() {
			if !fv.IsNull() {
				allNull = false
				break
			}
		}
		if allNull {
			return sqlval.NullOf(col.Type), nil
		}
	}
	// Lenient conversion to the declared type; CHAR padding is applied
	// by the cast (Hive 3 pads CHAR on the read side; Hive 2.3's reader
	// returns the stored string unpadded).
	out, _ := sqlval.Cast(v, col.Type, sqlval.CastHive)
	if out.Kind() == sqlval.KindChar && !out.IsNull() && !profile.ReadSideCharPadding {
		out = sqlval.CharVal(strings.TrimRight(out.Str(), " "), out.Type().Length())
	}
	return out, nil
}

// columnResolver maps each target column to a file column index (−1
// when absent). Files with positional names (_col0, _col1, …) resolve
// by position — Hive's ORC convention; otherwise names match
// case-insensitively.
func columnResolver(file serde.Schema, target []serde.Column) []int {
	positional := len(file.Columns) > 0
	for i, c := range file.Columns {
		if c.Name != fmt.Sprintf("_col%d", i) {
			positional = false
			break
		}
	}
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
			if strings.EqualFold(fc.Name, target[i].Name) {
				out[i] = j
				break
			}
		}
	}
	return out
}

// Project applies the SELECT projection and WHERE predicate to rows of
// the given schema. It is shared by the Hive engine and, because Spark
// links Hive libraries for its connector, by the Spark SQL front end.
func Project(columns []serde.Column, rows []sqlval.Row, s *sqlparse.Select, mode sqlval.CastMode) (*Result, error) {
	colIdx := func(name string) (int, error) {
		for i, c := range columns {
			if strings.EqualFold(c.Name, name) {
				return i, nil
			}
		}
		return 0, fmt.Errorf("sql: column %q not found", name)
	}
	var sel []int
	var outCols []serde.Column
	for _, item := range s.Items {
		if item.Star {
			for i, c := range columns {
				sel = append(sel, i)
				outCols = append(outCols, c)
			}
			continue
		}
		i, err := colIdx(item.Column)
		if err != nil {
			return nil, err
		}
		sel = append(sel, i)
		outCols = append(outCols, columns[i])
	}
	var filter func(sqlval.Row) (bool, error)
	if s.Where != nil {
		wi, err := colIdx(s.Where.Column)
		if err != nil {
			return nil, err
		}
		lit, err := sqlparse.Eval(s.Where.Value, mode)
		if err != nil {
			return nil, err
		}
		want, err := sqlval.Cast(lit, columns[wi].Type, mode)
		if err != nil {
			return nil, err
		}
		op := s.Where.Op
		filter = func(row sqlval.Row) (bool, error) {
			if row[wi].IsNull() || want.IsNull() {
				return false, nil // SQL three-valued logic: NULL never matches
			}
			c, err := sqlval.Compare(row[wi], want)
			if err != nil {
				return false, err
			}
			switch op {
			case "=":
				return c == 0, nil
			case "!=":
				return c != 0, nil
			case "<":
				return c < 0, nil
			case "<=":
				return c <= 0, nil
			case ">":
				return c > 0, nil
			case ">=":
				return c >= 0, nil
			default:
				return false, fmt.Errorf("sql: unknown operator %q", op)
			}
		}
	}
	var kept []sqlval.Row
	for _, row := range rows {
		if filter != nil {
			ok, err := filter(row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		kept = append(kept, row)
	}
	// Aggregate queries produce a single row; mixing aggregates with
	// plain columns requires GROUP BY, which this subset does not cover.
	hasAgg := false
	for _, item := range s.Items {
		if item.Agg != "" {
			hasAgg = true
		}
	}
	if hasAgg || s.GroupBy != "" {
		for _, item := range s.Items {
			if item.Agg == "" && !strings.EqualFold(item.Column, s.GroupBy) {
				return nil, fmt.Errorf("sql: non-aggregate column %q must appear in GROUP BY", item.Column)
			}
		}
		if s.GroupBy == "" {
			return aggregate(columns, kept, s)
		}
		return aggregateGrouped(columns, kept, s)
	}
	if s.OrderBy != nil {
		oi, err := colIdx(s.OrderBy.Column)
		if err != nil {
			return nil, err
		}
		desc := s.OrderBy.Desc
		var sortErr error
		sort.SliceStable(kept, func(i, j int) bool {
			c, err := sqlval.Compare(kept[i][oi], kept[j][oi])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if desc {
				return c > 0
			}
			return c < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}
	if s.Limit >= 0 && len(kept) > s.Limit {
		kept = kept[:s.Limit]
	}
	res := &Result{Columns: outCols}
	for _, row := range kept {
		out := make(sqlval.Row, len(sel))
		for i, idx := range sel {
			out[i] = row[idx]
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// aggregateGrouped evaluates GROUP BY over a single grouping column:
// rows are bucketed by the column's rendered value and each bucket is
// aggregated independently. Groups are emitted in first-seen order.
func aggregateGrouped(columns []serde.Column, rows []sqlval.Row, s *sqlparse.Select) (*Result, error) {
	gi := -1
	for i, c := range columns {
		if strings.EqualFold(c.Name, s.GroupBy) {
			gi = i
			break
		}
	}
	if gi < 0 {
		return nil, fmt.Errorf("sql: column %q not found", s.GroupBy)
	}
	var order []string
	groups := map[string][]sqlval.Row{}
	keyVal := map[string]sqlval.Value{}
	for _, row := range rows {
		k := row[gi].String()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
			keyVal[k] = row[gi]
		}
		groups[k] = append(groups[k], row)
	}
	res := &Result{}
	for n, k := range order {
		sub := &sqlparse.Select{Items: nil, Table: s.Table}
		var rowOut sqlval.Row
		for _, item := range s.Items {
			if item.Agg == "" {
				if n == 0 {
					res.Columns = append(res.Columns, columns[gi])
				}
				rowOut = append(rowOut, keyVal[k])
				continue
			}
			sub.Items = []sqlparse.SelectItem{item}
			part, err := aggregate(columns, groups[k], sub)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				res.Columns = append(res.Columns, part.Columns[0])
			}
			rowOut = append(rowOut, part.Rows[0][0])
		}
		res.Rows = append(res.Rows, rowOut)
	}
	if len(order) == 0 {
		// Preserve the header for empty inputs.
		for _, item := range s.Items {
			name := item.Column
			if item.Agg != "" {
				name = item.Agg + "(" + item.Column + ")"
				if item.Star {
					name = item.Agg + "(*)"
				}
			}
			res.Columns = append(res.Columns, serde.Column{Name: name, Type: sqlval.String})
		}
	}
	return res, nil
}

// aggregate evaluates an all-aggregate projection over the filtered
// rows, producing a single result row.
func aggregate(columns []serde.Column, rows []sqlval.Row, s *sqlparse.Select) (*Result, error) {
	colIdx := func(name string) (int, error) {
		for i, c := range columns {
			if strings.EqualFold(c.Name, name) {
				return i, nil
			}
		}
		return 0, fmt.Errorf("sql: column %q not found", name)
	}
	res := &Result{}
	out := make(sqlval.Row, 0, len(s.Items))
	for _, item := range s.Items {
		label := item.Agg + "(*)"
		var idx int
		if !item.Star {
			var err error
			idx, err = colIdx(item.Column)
			if err != nil {
				return nil, err
			}
			label = fmt.Sprintf("%s(%s)", item.Agg, columns[idx].Name)
		}
		v, err := aggValue(item, idx, columns, rows)
		if err != nil {
			return nil, err
		}
		res.Columns = append(res.Columns, serde.Column{Name: label, Type: v.Type()})
		out = append(out, v)
	}
	res.Rows = []sqlval.Row{out}
	return res, nil
}

func aggValue(item sqlparse.SelectItem, idx int, columns []serde.Column, rows []sqlval.Row) (sqlval.Value, error) {
	switch item.Agg {
	case "count":
		n := int64(0)
		for _, row := range rows {
			if item.Star || !row[idx].IsNull() {
				n++
			}
		}
		return sqlval.IntVal(sqlval.BigInt, n), nil
	case "sum", "avg":
		col := columns[idx]
		if !col.Type.IsNumeric() {
			return sqlval.Value{}, fmt.Errorf("sql: %s over non-numeric column %q", item.Agg, col.Name)
		}
		sum := 0.0
		n := int64(0)
		for _, row := range rows {
			v := row[idx]
			if v.IsNull() {
				continue
			}
			n++
			switch v.Kind() {
			case sqlval.KindFloat, sqlval.KindDouble:
				sum += v.Float()
			case sqlval.KindDecimal:
				sum += v.Dec().Float64()
			default:
				sum += float64(v.Int())
			}
		}
		if n == 0 {
			return sqlval.NullOf(sqlval.Double), nil
		}
		if item.Agg == "avg" {
			return sqlval.DoubleVal(sum / float64(n)), nil
		}
		if col.Type.IsIntegral() {
			return sqlval.IntVal(sqlval.BigInt, int64(sum)), nil
		}
		return sqlval.DoubleVal(sum), nil
	case "min", "max":
		var best sqlval.Value
		found := false
		for _, row := range rows {
			v := row[idx]
			if v.IsNull() {
				continue
			}
			if !found {
				best = v
				found = true
				continue
			}
			c, err := sqlval.Compare(v, best)
			if err != nil {
				return sqlval.Value{}, err
			}
			if (item.Agg == "min" && c < 0) || (item.Agg == "max" && c > 0) {
				best = v
			}
		}
		if !found {
			return sqlval.NullOf(columns[idx].Type), nil
		}
		return best, nil
	default:
		return sqlval.Value{}, fmt.Errorf("sql: unknown aggregate %q", item.Agg)
	}
}
