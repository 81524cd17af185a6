package core

import (
	"fmt"

	"repro/internal/csi"
	"repro/internal/hdfssim"
	"repro/internal/hivesim"
	"repro/internal/obs"
	"repro/internal/serde"
	"repro/internal/sparksim"
	"repro/internal/sqlval"
	"repro/internal/versions"
)

// Iface names one of the three write/read interfaces of Figure 6.
type Iface string

// The three interfaces.
const (
	SparkSQL  Iface = "sparksql"
	DataFrame Iface = "dataframe"
	HiveQL    Iface = "hiveql"
)

// ColumnName is the column every test table declares. The mixed case is
// deliberate: it exposes the case-preservation discrepancies.
const ColumnName = "TestCol"

// Deployment is a co-deployed Spark+Hive pair sharing one warehouse and
// one metastore — the system under test. A skew deployment additionally
// carries a second, differently-versioned engine pair over the same
// warehouse and metastore: writes run on the writer stack and reads on
// the reader stack, modeling the paper's upgrade scenario where data
// written before an upgrade is read after it (§5, upgrade triggers).
type Deployment struct {
	FS    *hdfssim.FileSystem
	MS    *hivesim.Metastore
	Spark *sparksim.Session
	Hive  *hivesim.Hive
	// ReadSpark/ReadHive are the reader-stack engines. In an unskewed
	// deployment they alias Spark/Hive, so every existing call path
	// behaves exactly as before the version axis existed.
	ReadSpark *sparksim.Session
	ReadHive  *hivesim.Hive
	// Pair is the writer→reader version pair (nil when unversioned).
	Pair *versions.Pair
}

// NewDeployment stands up a fresh co-deployment.
func NewDeployment() *Deployment {
	fs := hdfssim.New(nil)
	ms := hivesim.NewMetastore()
	spark := sparksim.NewSession(fs, ms)
	hive := hivesim.New(fs, ms)
	return &Deployment{
		FS:    fs,
		MS:    ms,
		Spark: spark,
		Hive:  hive,
		// Same engines on both sides: no skew.
		ReadSpark: spark,
		ReadHive:  hive,
	}
}

// NewSkewDeployment stands up two engine stacks — writer and reader —
// over one shared warehouse and metastore, each pinned to its side's
// version profiles. The pair must validate; unknown profiles are
// rejected, never normalized.
func NewSkewDeployment(pair versions.Pair) (*Deployment, error) {
	if err := pair.Validate(); err != nil {
		return nil, err
	}
	fs := hdfssim.New(nil)
	ms := hivesim.NewMetastore()
	d := &Deployment{
		FS:        fs,
		MS:        ms,
		Spark:     sparksim.NewSession(fs, ms),
		Hive:      hivesim.New(fs, ms),
		ReadSpark: sparksim.NewSession(fs, ms),
		ReadHive:  hivesim.New(fs, ms),
		Pair:      &pair,
	}
	if err := d.Spark.ApplyVersionProfile(pair.Writer.Spark); err != nil {
		return nil, err
	}
	if err := d.Hive.ApplyVersionProfile(pair.Writer.Hive); err != nil {
		return nil, err
	}
	if err := d.ReadSpark.ApplyVersionProfile(pair.Reader.Spark); err != nil {
		return nil, err
	}
	if err := d.ReadHive.ApplyVersionProfile(pair.Reader.Hive); err != nil {
		return nil, err
	}
	return d, nil
}

// SetConf applies deployment configuration overrides to every Spark
// session — overrides beat version-profile defaults, exactly as
// deployment configuration beats shipped defaults.
func (d *Deployment) SetConf(conf map[string]string) {
	for k, v := range conf {
		d.Spark.Conf().Set(k, v)
		if d.ReadSpark != d.Spark {
			d.ReadSpark.Conf().Set(k, v)
		}
	}
}

// release drops a table the harness is done with: its metastore entry
// and every file under its location. Each case owns its tables and no
// other case or oracle reads them, so releasing them once the case's
// outcome is recorded keeps only in-flight tables in the warehouse.
// This is a harness action, not an engine statement: it emits no span
// and leaves the engines' DROP TABLE semantics alone. Releasing a table
// its CREATE never registered is a no-op that allocates nothing.
func (d *Deployment) release(table string) {
	t, ok := d.MS.Lookup(table)
	if !ok {
		return
	}
	// DropTable with ifExists cannot fail. DeleteTree fails only in
	// NameNode safe mode, which leaves the files behind: later scans pay
	// for them, but no outcome changes, since table names are unique
	// within a run.
	_ = d.MS.DropTable(t.Name, true)
	_ = d.FS.DeleteTree(t.Location)
}

// WriteOutcome records a write attempt through one interface.
type WriteOutcome struct {
	Err      error
	Warnings []string
}

// ReadOutcome records a read attempt through one interface.
//
// Value points at the element of the row the engine returned; it is
// nil when no row came back, so HasRow == (Value != nil) always holds.
// The value is the engine's row, never mutated by core: the columns of
// one wide table share that row instead of copying a Value each.
type ReadOutcome struct {
	Err      error
	Warnings []string
	HasRow   bool
	Value    *sqlval.Value
}

// SetTracer attaches an observability tracer to every engine; spans
// are threaded per call through WriteSpan/ReadSpan, so concurrent
// harness workers sharing the deployment stay race-free.
func (d *Deployment) SetTracer(tr *obs.Tracer) {
	d.Spark.SetTracer(tr)
	d.Hive.SetTracer(tr)
	if d.ReadSpark != d.Spark {
		d.ReadSpark.SetTracer(tr)
	}
	if d.ReadHive != d.Hive {
		d.ReadHive.SetTracer(tr)
	}
}

// IfaceSystem maps an interface to the system that executes it.
func IfaceSystem(iface Iface) csi.System {
	if iface == HiveQL {
		return csi.Hive
	}
	return csi.Spark
}

// Write creates the table through the interface's native DDL path and
// inserts the input, on the writer stack.
func (d *Deployment) Write(iface Iface, table, format string, in Input) WriteOutcome {
	return d.WriteSpan(nil, iface, table, format, in)
}

// WriteSpan is Write under an explicit parent span: each engine call
// emits its span tree as a child of parent.
func (d *Deployment) WriteSpan(parent *obs.Span, iface Iface, table, format string, in Input) WriteOutcome {
	return writeVia(d.Spark, d.Hive, parent, iface, table, format, []WideColumn{{ColumnName, in}})
}

// Read fetches the single test row through the interface, on the
// reader stack.
func (d *Deployment) Read(iface Iface, table string) ReadOutcome {
	return d.ReadSpan(nil, iface, table)
}

// ReadSpan is Read under an explicit parent span.
func (d *Deployment) ReadSpan(parent *obs.Span, iface Iface, table string) ReadOutcome {
	return readVia(d.ReadSpark, d.ReadHive, parent, iface, table).column(0)
}

// WriterReadSpan reads through the *writer* stack — the skew probe's
// control: in the writer's own deployment generation, what does the
// table read back as?
func (d *Deployment) WriterReadSpan(parent *obs.Span, iface Iface, table string) ReadOutcome {
	return readVia(d.Spark, d.Hive, parent, iface, table).column(0)
}

// ReaderWriteSpan writes through the *reader* stack — the skew probe's
// second control: had the upgraded (or downgraded) stack produced the
// table itself, what would it contain?
func (d *Deployment) ReaderWriteSpan(parent *obs.Span, iface Iface, table, format string, in Input) WriteOutcome {
	return writeVia(d.ReadSpark, d.ReadHive, parent, iface, table, format, []WideColumn{{ColumnName, in}})
}

// writeVia is the harness's one writer: it creates table with one
// column per cols entry and inserts their single row through iface on
// the given stack. The SQL interfaces keep the INSERT's warnings (the
// error-handling oracle reads them); the DataFrame writer reports none.
func writeVia(spark *sparksim.Session, hive *hivesim.Hive, parent *obs.Span, iface Iface, table, format string, cols []WideColumn) WriteOutcome {
	switch iface {
	case SparkSQL, HiveQL:
		return createInsert(spark, hive, parent, iface, createTableSQL(table, format, cols), insertSQL(table, cols))
	case DataFrame:
		schema := serde.Schema{Columns: make([]serde.Column, len(cols))}
		row := make(sqlval.Row, 0, 8) // CreateDataFrame copies the row: common widths stay off the heap
		for i, c := range cols {
			schema.Columns[i] = serde.Column{Name: c.Name, Type: c.Input.Type}
			row = append(row, c.Input.Value)
		}
		df, err := spark.CreateDataFrame(schema, []sqlval.Row{row})
		if err != nil {
			return WriteOutcome{Err: err}
		}
		return WriteOutcome{Err: df.SaveAsTableSpan(parent, table, format)}
	default:
		return WriteOutcome{Err: fmt.Errorf("core: unknown interface %q", iface)}
	}
}

// createInsert runs a CREATE TABLE and then an INSERT through a SQL
// interface, keeping the INSERT's warnings.
func createInsert(spark *sparksim.Session, hive *hivesim.Hive, parent *obs.Span, iface Iface, create, insert string) WriteOutcome {
	if _, err := execSQL(spark, hive, parent, iface, create); err != nil {
		return WriteOutcome{Err: err}
	}
	res, err := execSQL(spark, hive, parent, iface, insert)
	if err != nil {
		return WriteOutcome{Err: err}
	}
	return WriteOutcome{Warnings: res.Warnings}
}

// execSQL runs one statement on the engine behind a SQL interface:
// HiveQL on hive, Spark SQL on spark. The two engines' results share
// one shape.
func execSQL(spark *sparksim.Session, hive *hivesim.Hive, parent *obs.Span, iface Iface, stmt string) (*sparksim.Result, error) {
	if iface == HiveQL {
		res, err := hive.ExecuteSpan(parent, stmt)
		return (*sparksim.Result)(res), err
	}
	return spark.SQLSpan(parent, stmt)
}

// WideOutcome is one interface's view of a table: its first row, the
// columns that row carries and the read's warnings.
type WideOutcome struct {
	ReadErr  error
	Row      sqlval.Row
	Columns  []serde.Column
	Warnings []string
}

// readVia is the harness's one reader: it fetches table's first row
// through iface on the given stack.
func readVia(spark *sparksim.Session, hive *hivesim.Hive, parent *obs.Span, iface Iface, table string) WideOutcome {
	var res *sparksim.Result
	var err error
	switch iface {
	case SparkSQL, HiveQL:
		res, err = execSQL(spark, hive, parent, iface, "SELECT * FROM "+table)
	case DataFrame:
		res, err = spark.TableSpan(parent, table)
	default:
		err = fmt.Errorf("core: unknown interface %q", iface)
	}
	if err != nil {
		return WideOutcome{ReadErr: err}
	}
	out := WideOutcome{Columns: res.Columns, Warnings: res.Warnings}
	if len(res.Rows) > 0 {
		out.Row = res.Rows[0]
	}
	return out
}

// column projects the read onto its i-th column; a row too short to
// carry it reads as no row.
func (r WideOutcome) column(i int) ReadOutcome {
	out := ReadOutcome{Err: r.ReadErr, Warnings: r.Warnings}
	if 0 <= i && i < len(r.Row) {
		out.HasRow = true
		out.Value = &r.Row[i]
	}
	return out
}
