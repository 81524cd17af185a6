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

// Skewed reports whether the deployment runs distinct writer and reader
// stacks.
func (d *Deployment) Skewed() bool { return d.ReadSpark != d.Spark || d.ReadHive != d.Hive }

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

// WriteOutcome records a write attempt through one interface.
type WriteOutcome struct {
	Err      error
	Warnings []string
}

// ReadOutcome records a read attempt through one interface.
type ReadOutcome struct {
	Err      error
	Warnings []string
	HasRow   bool
	Value    sqlval.Value
	Column   string
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
	return writeVia(d.Spark, d.Hive, parent, iface, table, format, in)
}

// Read fetches the single test row through the interface, on the
// reader stack.
func (d *Deployment) Read(iface Iface, table string) ReadOutcome {
	return d.ReadSpan(nil, iface, table)
}

// ReadSpan is Read under an explicit parent span.
func (d *Deployment) ReadSpan(parent *obs.Span, iface Iface, table string) ReadOutcome {
	return readVia(d.ReadSpark, d.ReadHive, parent, iface, table)
}

// WriterReadSpan reads through the *writer* stack — the skew probe's
// control: in the writer's own deployment generation, what does the
// table read back as?
func (d *Deployment) WriterReadSpan(parent *obs.Span, iface Iface, table string) ReadOutcome {
	return readVia(d.Spark, d.Hive, parent, iface, table)
}

// ReaderWriteSpan writes through the *reader* stack — the skew probe's
// second control: had the upgraded (or downgraded) stack produced the
// table itself, what would it contain?
func (d *Deployment) ReaderWriteSpan(parent *obs.Span, iface Iface, table, format string, in Input) WriteOutcome {
	return writeVia(d.ReadSpark, d.ReadHive, parent, iface, table, format, in)
}

func writeVia(spark *sparksim.Session, hive *hivesim.Hive, parent *obs.Span, iface Iface, table, format string, in Input) WriteOutcome {
	switch iface {
	case SparkSQL:
		if _, err := spark.SQLSpan(parent, "CREATE TABLE "+table+" ("+ColumnName+" "+in.Type.String()+") STORED AS "+format); err != nil {
			return WriteOutcome{Err: err}
		}
		res, err := spark.SQLSpan(parent, "INSERT INTO "+table+" VALUES ("+in.Literal+")")
		if err != nil {
			return WriteOutcome{Err: err}
		}
		return WriteOutcome{Warnings: res.Warnings}
	case DataFrame:
		schema := serde.Schema{Columns: []serde.Column{{Name: ColumnName, Type: in.Type}}}
		df, err := spark.CreateDataFrame(schema, []sqlval.Row{{in.Value}})
		if err != nil {
			return WriteOutcome{Err: err}
		}
		return WriteOutcome{Err: df.SaveAsTableSpan(parent, table, format)}
	case HiveQL:
		if _, err := hive.ExecuteSpan(parent, "CREATE TABLE "+table+" ("+ColumnName+" "+in.Type.String()+") STORED AS "+format); err != nil {
			return WriteOutcome{Err: err}
		}
		res, err := hive.ExecuteSpan(parent, "INSERT INTO "+table+" VALUES ("+in.Literal+")")
		if err != nil {
			return WriteOutcome{Err: err}
		}
		return WriteOutcome{Warnings: res.Warnings}
	default:
		return WriteOutcome{Err: fmt.Errorf("core: unknown interface %q", iface)}
	}
}

func readVia(spark *sparksim.Session, hive *hivesim.Hive, parent *obs.Span, iface Iface, table string) ReadOutcome {
	switch iface {
	case SparkSQL:
		res, err := spark.SQLSpan(parent, "SELECT * FROM "+table)
		if err != nil {
			return ReadOutcome{Err: err}
		}
		return readOutcome(res.Columns, res.Rows, res.Warnings)
	case DataFrame:
		res, err := spark.TableSpan(parent, table)
		if err != nil {
			return ReadOutcome{Err: err}
		}
		return readOutcome(res.Columns, res.Rows, res.Warnings)
	case HiveQL:
		res, err := hive.ExecuteSpan(parent, "SELECT * FROM "+table)
		if err != nil {
			return ReadOutcome{Err: err}
		}
		return readOutcome(res.Columns, res.Rows, res.Warnings)
	default:
		return ReadOutcome{Err: fmt.Errorf("core: unknown interface %q", iface)}
	}
}

func readOutcome(cols []serde.Column, rows []sqlval.Row, warnings []string) ReadOutcome {
	out := ReadOutcome{Warnings: warnings}
	if len(cols) > 0 {
		out.Column = cols[0].Name
	}
	if len(rows) > 0 && len(rows[0]) > 0 {
		out.HasRow = true
		out.Value = rows[0][0]
	}
	return out
}
