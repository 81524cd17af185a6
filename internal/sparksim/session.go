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

// PropSparkSchema is the table property under which Spark persists its
// case-preserving, original-typed schema. Hive ignores it.
const PropSparkSchema = "spark.sql.sources.schema"

// Result is the outcome of a SparkSQL statement or DataFrame action.
type Result struct {
	Columns  []serde.Column
	Rows     []sqlval.Row
	Warnings []string
}

// IncompatibleSchemaError is Spark's Avro deserializer failure when the
// file schema cannot be reconciled with the catalog schema — the
// SPARK-39075 error.
type IncompatibleSchemaError struct {
	Table       string
	Column      string
	FileType    sqlval.Type
	CatalogType sqlval.Type
}

// Error implements the error interface.
func (e *IncompatibleSchemaError) Error() string {
	return fmt.Sprintf("spark: IncompatibleSchemaException: cannot convert Avro %s to SQL %s for %s.%s",
		e.FileType, e.CatalogType, e.Table, e.Column)
}

// Session is a Spark session bound to a Hive metastore and warehouse
// through the Hive connector.
type Session struct {
	conf   *Conf
	ms     *hivesim.Metastore
	fs     *hdfssim.FileSystem
	tracer *obs.Tracer
}

// NewSession creates a session over the shared metastore and file
// system with default configuration.
func NewSession(fs *hdfssim.FileSystem, ms *hivesim.Metastore) *Session {
	return &Session{conf: NewConf(), ms: ms, fs: fs}
}

// Conf returns the session configuration.
func (s *Session) Conf() *Conf { return s.conf }

// Metastore returns the connected Hive metastore.
func (s *Session) Metastore() *hivesim.Metastore { return s.ms }

// SetTracer attaches an observability tracer. Spans are threaded
// explicitly through the *Span entry points (SQLSpan, SaveAsTableSpan,
// TableSpan), so a session shared by concurrent harness workers stays
// race-free: there is no mutable "current span" on the session.
func (s *Session) SetTracer(tr *obs.Tracer) { s.tracer = tr }

// --- schema DDL property encoding ------------------------------------

// encodeSchemaDDL renders a schema as "name TYPE, name TYPE".
func encodeSchemaDDL(schema serde.Schema) string {
	var buf [8]string // the common widths stay off the heap
	types := buf[:0]
	n := 0
	for _, c := range schema.Columns {
		t := c.Type.String()
		types = append(types, t)
		n += len(", ") + len(c.Name) + len(" ") + len(t)
	}
	var b strings.Builder
	b.Grow(n)
	for i, c := range schema.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(types[i])
	}
	return b.String()
}

// parseSchemaDDL is the inverse of encodeSchemaDDL, splitting on
// top-level commas only.
func parseSchemaDDL(ddl string) (serde.Schema, error) {
	var schema serde.Schema
	depth := 0
	start := 0
	flush := func(part string) error {
		part = strings.TrimSpace(part)
		if part == "" {
			return fmt.Errorf("spark: empty column in schema DDL %q", ddl)
		}
		sp := strings.IndexByte(part, ' ')
		if sp < 0 {
			return fmt.Errorf("spark: malformed column %q in schema DDL", part)
		}
		typ, err := sqlval.ParseType(part[sp+1:])
		if err != nil {
			return err
		}
		schema.Columns = append(schema.Columns, serde.Column{Name: part[:sp], Type: typ})
		return nil
	}
	for i := 0; i < len(ddl); i++ {
		switch ddl[i] {
		case '<', '(':
			depth++
		case '>', ')':
			depth--
		case ',':
			if depth == 0 {
				if err := flush(ddl[start:i]); err != nil {
					return serde.Schema{}, err
				}
				start = i + 1
			}
		}
	}
	if err := flush(ddl[start:]); err != nil {
		return serde.Schema{}, err
	}
	return schema, nil
}

// resolveSchema returns the schema Spark reads the table under: the
// persisted case-preserving Spark schema when present, otherwise the
// lowercase Hive metastore schema (the fallback behind "not case
// preserving").
func (s *Session) resolveSchema(table *hivesim.Table) (schema serde.Schema, fromProps bool, err error) {
	if ddl := s.ms.Prop(table, PropSparkSchema); ddl != "" {
		schema, err := parseSchemaDDL(ddl)
		if err != nil {
			return serde.Schema{}, false, err
		}
		return schema, true, nil
	}
	return table.Schema(), false, nil
}

// applyCharVarcharAsString rewrites CHAR/VARCHAR columns to STRING when
// spark.sql.legacy.charVarcharAsString is set — the config's documented
// effect of dropping length semantics entirely.
func (s *Session) applyCharVarcharAsString(cols []serde.Column) []serde.Column {
	if !s.conf.Bool(ConfCharVarcharAsString) {
		return cols
	}
	out := make([]serde.Column, len(cols))
	for i, c := range cols {
		out[i] = serde.Column{Name: c.Name, Type: stripCharVarchar(c.Type)}
	}
	return out
}

func stripCharVarchar(t sqlval.Type) sqlval.Type {
	switch t.Kind {
	case sqlval.KindChar, sqlval.KindVarchar:
		return sqlval.String
	case sqlval.KindArray:
		return sqlval.ArrayType(stripCharVarchar(t.Elem()))
	case sqlval.KindMap:
		return sqlval.MapType(stripCharVarchar(t.Key()), stripCharVarchar(t.Val()))
	case sqlval.KindStruct:
		fields := make([]sqlval.Field, len(t.Fields()))
		for i, f := range t.Fields() {
			fields[i] = sqlval.Field{Name: f.Name, Type: stripCharVarchar(f.Type)}
		}
		return sqlval.StructType(fields...)
	default:
		return t
	}
}

// createTable registers a table through the Hive connector. Hive-style
// creation (SparkSQL STORED AS) persists the Spark schema only for ORC
// and Parquet — schema inference "only works with ORC and Parquet" —
// while DataFrame saveAsTable persists it for every format.
func (s *Session) createTable(sp *obs.Span, name string, cols, partCols []serde.Column, format string, datasource bool) (*hivesim.Table, error) {
	if _, err := serde.ByName(format); err != nil {
		return nil, err
	}
	if err := s.checkAvro(format); err != nil {
		return nil, err
	}
	cols = s.applyCharVarcharAsString(cols)
	msCols := cols
	if format == "avro" {
		// The connector delegates schema derivation to Hive's Avro SerDe.
		msCols = hivesim.AvroMetastoreColumns(cols)
	}
	props := map[string]string{}
	if datasource || format != "avro" {
		props[PropSparkSchema] = encodeSchemaDDL(serde.Schema{Columns: cols})
	}
	t, err := s.ms.CreateTablePartitioned(name, msCols, partCols, format, props)
	sp.Child(csi.Hive, csi.DataPlane, "metastore/create-table").
		Set("table", name).Set("format", format).Fail(err).End()
	return t, err
}

// --- legacy binary decimal encoding -----------------------------------

// encodeLegacyDecimal is Spark's unannotated binary decimal layout.
func encodeLegacyDecimal(d sqlval.Decimal) []byte {
	return []byte(strconv.FormatInt(d.Unscaled, 10) + ":" + strconv.Itoa(d.Scale))
}

// decodeLegacyDecimal parses the layout back; only Spark understands it.
func decodeLegacyDecimal(b string) (sqlval.Decimal, error) {
	parts := strings.SplitN(b, ":", 2)
	if len(parts) != 2 {
		return sqlval.Decimal{}, fmt.Errorf("spark: malformed legacy decimal %q", b)
	}
	u, err1 := strconv.ParseInt(parts[0], 10, 64)
	sc, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || sc < 0 || sc > sqlval.MaxDecimalPrecision {
		return sqlval.Decimal{}, fmt.Errorf("spark: malformed legacy decimal %q", b)
	}
	return sqlval.Decimal{Unscaled: u, Scale: sc}, nil
}
