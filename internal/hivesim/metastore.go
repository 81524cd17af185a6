// Package hivesim simulates the Hive engine of the §8 case study: a
// case-insensitive metastore, a HiveQL front end, and a warehouse of
// serialized part files on a simulated HDFS namespace.
//
// The engine reproduces Hive's cross-system-visible personality:
//
//   - table and column names are lowercased in the metastore, losing
//     case (the "not case preserving" half of HIVE-26533);
//   - value coercion is lenient — invalid or out-of-range data becomes
//     NULL with no feedback (the error-handling oracle's target);
//   - the ORC writer records positional _colN column names
//     (SPARK-21686);
//   - CHAR(n) values are padded to n on the read side;
//   - DATE day counts are interpreted through the hybrid
//     Julian/Gregorian calendar, shifting pre-1582 dates written by
//     proleptic-calendar engines (the HIVE-26528-family model);
//   - Parquet writer time-zone metadata is ignored on read, so
//     timestamps written by Spark's adjusted INT96 path are shifted.
package hivesim

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/serde"
)

// ErrNoSuchTable reports a lookup of an unknown table.
var ErrNoSuchTable = fmt.Errorf("hive: table not found")

// ErrTableExists reports a CREATE TABLE collision.
var ErrTableExists = fmt.Errorf("hive: table already exists")

// Table is a metastore entry. Names are stored lowercased.
type Table struct {
	Name    string
	Columns []serde.Column
	// PartitionCols are the partition columns; their values select the
	// "name=value" directory a row's part file lands in.
	PartitionCols []serde.Column
	Format        string
	Location      string
	// Props are the table properties, nil while the table has none.
	// Read and write them through Prop and SetProp.
	Props map[string]string

	partSeq int
}

// Schema returns the table's schema.
func (t *Table) Schema() serde.Schema {
	return serde.Schema{Columns: t.Columns}
}

// Metastore is the case-insensitive catalog shared by Hive and, through
// the Spark Hive connector, by Spark.
type Metastore struct {
	mu     sync.Mutex
	tables map[string]*Table
}

// NewMetastore returns an empty metastore.
func NewMetastore() *Metastore {
	return &Metastore{tables: make(map[string]*Table)}
}

// CreateTable registers a table, lowercasing the table and column
// names — Hive's metastore is case-insensitive by design.
func (m *Metastore) CreateTable(name string, columns []serde.Column, format string, props map[string]string) (*Table, error) {
	return m.CreateTablePartitioned(name, columns, nil, format, props)
}

// CreateTablePartitioned registers a table with partition columns.
func (m *Metastore) CreateTablePartitioned(name string, columns, partitionCols []serde.Column, format string, props map[string]string) (*Table, error) {
	key := strings.ToLower(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tables[key]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, key)
	}
	seen := make(map[string]bool, len(columns)+len(partitionCols))
	lower := func(in []serde.Column) ([]serde.Column, error) {
		out := make([]serde.Column, len(in))
		for i, c := range in {
			l := strings.ToLower(c.Name)
			if seen[l] {
				return nil, fmt.Errorf("hive: duplicate column %q (column names are case-insensitive)", l)
			}
			seen[l] = true
			out[i] = serde.Column{Name: l, Type: c.Type}
		}
		return out, nil
	}
	cols, err := lower(columns)
	if err != nil {
		return nil, err
	}
	partCols, err := lower(partitionCols)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:          key,
		Columns:       cols,
		PartitionCols: partCols,
		Format:        format,
		Location:      "/warehouse/" + key,
	}
	if len(props) > 0 {
		t.Props = maps.Clone(props)
	}
	m.tables[key] = t
	return t, nil
}

// GetTable looks a table up case-insensitively.
func (m *Metastore) GetTable(name string) (*Table, error) {
	if t, ok := m.Lookup(name); ok {
		return t, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, strings.ToLower(name))
}

// Lookup is GetTable for callers that expect misses: a missing table is
// ok == false, and no error is built.
func (m *Metastore) Lookup(name string) (*Table, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tables[strings.ToLower(name)]
	return t, ok
}

// DropTable removes a table. With ifExists, dropping a missing table is
// a no-op.
func (m *Metastore) DropTable(name string, ifExists bool) error {
	key := strings.ToLower(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tables[key]; !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrNoSuchTable, key)
	}
	delete(m.tables, key)
	return nil
}

// Tables lists table names, sorted.
func (m *Metastore) Tables() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.tables))
	for n := range m.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NextPart allocates the next part-file path for a table.
func (m *Metastore) NextPart(t *Table) string {
	return m.NextPartIn(t, "")
}

// NextPartIn allocates the next part-file path under the given
// partition directory ("" for unpartitioned tables).
func (m *Metastore) NextPartIn(t *Table, partitionDir string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	base := t.Location
	if partitionDir != "" {
		base += "/" + partitionDir
	}
	// part-%05d: the sequence only counts up from zero, so padding the
	// plain decimal matches fmt byte for byte.
	seq := strconv.Itoa(t.partSeq)
	p := base + "/part-" + "00000"[min(len(seq), 5):] + seq + "." + t.Format
	t.partSeq++
	return p
}

// AllColumns returns data columns followed by partition columns — the
// schema SELECT * projects.
func (t *Table) AllColumns() []serde.Column {
	if len(t.PartitionCols) == 0 {
		return t.Columns
	}
	out := make([]serde.Column, 0, len(t.Columns)+len(t.PartitionCols))
	out = append(out, t.Columns...)
	return append(out, t.PartitionCols...)
}

// SetProp updates a table property.
func (m *Metastore) SetProp(t *Table, key, value string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.Props == nil {
		t.Props = map[string]string{}
	}
	t.Props[key] = value
}

// Prop reads a table property.
func (m *Metastore) Prop(t *Table, key string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return t.Props[key]
}
