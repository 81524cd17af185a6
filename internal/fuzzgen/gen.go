package fuzzgen

import (
	"fmt"
	"strings"

	"repro/internal/confplane"
	"repro/internal/core"
	"repro/internal/sparksim"
	"repro/internal/versions"
)

// ColumnSpec is one generated column: a declared type and the SQL
// literal inserted into it. Valid records the inferred validity (see
// buildColumns); it is informational in persisted reproducers — replay
// re-infers it so hand-edited corpus files cannot go stale.
type ColumnSpec struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	Literal string `json:"literal"`
	Valid   bool   `json:"valid"`
}

// Assignment pins a case to one plan (by its Figure-6 name, e.g.
// "w_sql_r_hive") and one backend format.
type Assignment struct {
	Plan   string `json:"plan"`
	Format string `json:"format"`
}

// Case is one generated probe group: a multi-column schema, a session
// configuration, and the interface/format assignments it runs under.
// Sibling assignments share column identity, which is what gives the
// differential oracle its pairs.
type Case struct {
	Seed        uint64            `json:"seed"`
	Columns     []ColumnSpec      `json:"columns"`
	Conf        map[string]string `json:"conf,omitempty"`
	Assignments []Assignment      `json:"assignments"`
	// Pair, when non-empty, runs the case on a version-skew deployment
	// ("wSpark/wHive->rSpark/rHive"). omitempty keeps pre-version corpus
	// files and case encodings byte-identical.
	Pair string `json:"pair,omitempty"`
}

// Size is the shrinker's metric: assignments + columns + configuration
// entries + total literal length. Every accepted shrink step strictly
// decreases it, so minimized reproducers are never larger than their
// originals.
func (c Case) Size() int {
	n := len(c.Assignments) + len(c.Columns) + len(c.Conf)
	for _, col := range c.Columns {
		n += len(col.Literal)
	}
	return n
}

// Generator produces deterministic random cases for one campaign seed.
type Generator struct {
	seed     uint64
	confPool []map[string]string
	plans    map[string][]core.Plan // family -> plans
	// pairPool, when non-empty, turns on the version axis: each case
	// draws a writer->reader pair (index 0 is the unskewed baseline, so
	// single-version behavior stays represented in every campaign).
	pairPool []string
}

// EnableVersions arms the version axis with the default pair matrix.
// The pair draw is a pure function of the case seed — independent of
// the column/assignment stream — so enabling versions changes no other
// draw of an existing case.
func (g *Generator) EnableVersions() {
	g.pairPool = g.pairPool[:0]
	for _, p := range versions.DefaultPairs() {
		g.pairPool = append(g.pairPool, p.String())
	}
}

// NewGenerator builds a generator. confs is the size of the per-campaign
// configuration pool (the first entry is always the default
// configuration, so defaults stay represented in every campaign).
func NewGenerator(seed uint64, confs int) *Generator {
	g := &Generator{seed: seed, plans: map[string][]core.Plan{}}
	for _, p := range core.Plans() {
		g.plans[p.Family] = append(g.plans[p.Family], p)
	}
	if confs < 1 {
		confs = 1
	}
	cr := NewRand(DeriveSeed(seed, -1))
	g.confPool = append(g.confPool, nil)
	for i := 1; i < confs; i++ {
		g.confPool = append(g.confPool, randomConf(cr))
	}
	return g
}

// ConfPool exposes the campaign's configuration pool (index 0 is the
// default configuration).
func (g *Generator) ConfPool() []map[string]string { return g.confPool }

// Case generates the index-th case of the campaign.
func (g *Generator) Case(index int) Case {
	seed := DeriveSeed(g.seed, index)
	r := NewRand(seed)
	c := Case{Seed: seed}
	c.Conf = g.confPool[r.Intn(len(g.confPool))]
	c.Columns = g.columns(r)
	c.Assignments = g.assignments(r)
	if len(g.pairPool) > 0 {
		pr := NewRand(DeriveSeed(seed, -2))
		c.Pair = g.pairPool[pr.Intn(len(g.pairPool))]
	}
	return c
}

// columns generates 1..4 columns. At most one column is drawn from the
// invalid-leaning strategies so a failing row has a single plausible
// culprit — that keeps oracle attribution sharp and shrinking short.
func (g *Generator) columns(r *Rand) []ColumnSpec {
	n := 1 + r.Intn(4)
	cols := make([]ColumnSpec, 0, n)
	names := columnNames(r, n)
	invalidAt := -1
	if r.Pct(35) {
		invalidAt = r.Intn(n)
	}
	for i := 0; i < n; i++ {
		typ := Pick(r, typePool)
		lit := genLiteral(r, typ, i == invalidAt)
		cols = append(cols, ColumnSpec{Name: names[i], Type: typ, Literal: lit})
	}
	return cols
}

// assignments picks the case's plan/format probes. Patterns mirror the
// differential oracle's grouping: interface pairs share a format within
// a family, format pairs share a plan, grids do both, and solo cases
// feed only the write-read and error-handling oracles.
func (g *Generator) assignments(r *Rand) []Assignment {
	family := Pick(r, core.Families())
	plans := g.plans[family]
	formats := core.Formats()
	format := Pick(r, formats)
	switch r.Intn(10) {
	case 0: // solo
		return []Assignment{{Plan: Pick(r, plans).Name(), Format: format}}
	case 1, 2, 3: // interface pair: two plans of the family, one format
		a := r.Intn(len(plans))
		b := (a + 1 + r.Intn(len(plans)-1)) % len(plans)
		return []Assignment{
			{Plan: plans[a].Name(), Format: format},
			{Plan: plans[b].Name(), Format: format},
		}
	case 4, 5, 6: // format pair/triple: one plan across formats
		plan := Pick(r, plans).Name()
		out := []Assignment{{Plan: plan, Format: formats[0]}, {Plan: plan, Format: formats[1]}}
		if r.Pct(50) {
			out = append(out, Assignment{Plan: plan, Format: formats[2]})
		}
		return out
	default: // grid: two plans × two formats
		a := r.Intn(len(plans))
		b := (a + 1 + r.Intn(len(plans)-1)) % len(plans)
		f2 := formats[(indexOf(formats, format)+1+r.Intn(len(formats)-1))%len(formats)]
		return []Assignment{
			{Plan: plans[a].Name(), Format: format},
			{Plan: plans[a].Name(), Format: f2},
			{Plan: plans[b].Name(), Format: format},
			{Plan: plans[b].Name(), Format: f2},
		}
	}
}

func indexOf(s []string, v string) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return 0
}

// randomConf assembles one session configuration through the
// cross-system configuration plane: a site layer under a session layer,
// exactly the §6.2.1 layering where silent overrides arise. The
// effective view is what the deployment runs under.
func randomConf(r *Rand) map[string]string {
	plane := confplane.New()
	plane.AddLayer("fuzz-site", randomLayer(r, 1+r.Intn(2)))
	if r.Pct(50) {
		plane.AddLayer("fuzz-session", randomLayer(r, 1+r.Intn(2)))
	}
	return plane.Effective()
}

func randomLayer(r *Rand, n int) map[string]string {
	out := map[string]string{}
	for i := 0; i < n; i++ {
		k := Pick(r, confKeys)
		out[k.key] = Pick(r, k.values)
	}
	return out
}

var confKeys = []struct {
	key    string
	values []string
}{
	{sparksim.ConfStoreAssignmentPolicy, []string{"ansi", "legacy"}},
	{sparksim.ConfAnsiEnabled, []string{"true", "false"}},
	{sparksim.ConfCharVarcharAsString, []string{"true", "false"}},
	{sparksim.ConfReadSideCharPadding, []string{"true", "false"}},
	{sparksim.ConfSessionTimeZone, []string{"UTC", "America/Los_Angeles", "Asia/Shanghai", "Europe/Rome"}},
	{sparksim.ConfWriteLegacyDecimal, []string{"true", "false"}},
	{sparksim.ConfDatetimeRebaseLegacy, []string{"true", "false"}},
	{sparksim.ConfCaseSensitive, []string{"true", "false"}},
}

var typePool = []string{
	"BOOLEAN", "TINYINT", "SMALLINT", "INT", "BIGINT",
	"FLOAT", "DOUBLE", "DECIMAL(10,2)", "DECIMAL(5,2)",
	"STRING", "CHAR(4)", "VARCHAR(4)", "BINARY",
	"DATE", "TIMESTAMP",
	"ARRAY<INT>", "ARRAY<TINYINT>", "MAP<STRING,INT>", "MAP<INT,STRING>",
	"STRUCT<a:INT,b:STRING>",
}

// baseNames seeds column-name generation; mutations produce the
// case-collision pairs the schema planes disagree about.
var baseNames = []string{"FuzzCol", "MixedCase", "Value", "Payload", "RowKey", "Extra", "Amount", "Label"}

// reservedNames are SQL keywords used as identifiers — legal through
// some interfaces, rejected by others.
var reservedNames = []string{"table", "select", "date", "timestamp", "insert", "format"}

// columnNames produces n distinct-ish names: mixed-case bases with
// occasional reserved words, and occasionally a case-collision twin of
// an earlier column.
func columnNames(r *Rand, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i > 0 && r.Pct(12):
			out = append(out, flipCase(out[r.Intn(i)]))
		case r.Pct(8):
			out = append(out, Pick(r, reservedNames))
		default:
			name := Pick(r, baseNames)
			if r.Pct(50) {
				name = fmt.Sprintf("%s%d", name, r.Intn(100))
			}
			if r.Pct(25) {
				name = flipCase(name)
			}
			out = append(out, name)
		}
	}
	return out
}

func flipCase(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z':
			b.WriteRune(c - 32)
		case c >= 'A' && c <= 'Z':
			b.WriteRune(c + 32)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// genLiteral produces a SQL literal for the type. invalid leans the
// draw toward boundary-violating and malformed values; validity is
// ultimately inferred at build time (buildColumns), not here.
func genLiteral(r *Rand, typ string, invalid bool) string {
	kind := typ
	if i := strings.IndexAny(typ, "(<"); i > 0 {
		kind = typ[:i]
	}
	if r.Pct(6) {
		return "NULL"
	}
	switch kind {
	case "BOOLEAN":
		if invalid {
			return Pick(r, []string{"'yes'", "'no'", "'maybe'", "'2'"})
		}
		return Pick(r, []string{"true", "false", "'true'", "'false'"})
	case "TINYINT":
		if invalid {
			return Pick(r, []string{fmt.Sprint(128 + r.Intn(500)), fmt.Sprint(-129 - r.Intn(500)), "'abc'"})
		}
		return fmt.Sprint(-128 + r.Intn(256))
	case "SMALLINT":
		if invalid {
			return Pick(r, []string{fmt.Sprint(32768 + r.Intn(100000)), fmt.Sprint(-32769 - r.Intn(100000)), "'x'"})
		}
		return fmt.Sprint(-32768 + r.Intn(65536))
	case "INT":
		if invalid {
			return Pick(r, []string{fmt.Sprint(int64(2147483648) + int64(r.Intn(1<<30))), fmt.Sprint(int64(-2147483649) - int64(r.Intn(1<<30))), "'zzz'"})
		}
		return Pick(r, []string{fmt.Sprint(r.Intn(1 << 31)), "-2147483648", "2147483647", fmt.Sprint(-r.Intn(1 << 31))})
	case "BIGINT":
		if invalid {
			return Pick(r, []string{"'99999999999999999999999'", "'pqr'"})
		}
		return Pick(r, []string{fmt.Sprint(int64(r.Uint64() >> 1)), "9223372036854775807", "-9223372036854775808"})
	case "FLOAT", "DOUBLE":
		if invalid {
			return Pick(r, []string{"'NaN'", "'Infinity'", "'-Infinity'", "'abc'"})
		}
		return Pick(r, []string{
			fmt.Sprintf("%d.%d", r.Intn(1000), r.Intn(100)),
			fmt.Sprintf("-%d.%d", r.Intn(1000), r.Intn(100)),
			fmt.Sprintf("%d.5e%d", r.Intn(10), r.Intn(6)),
		})
	case "DECIMAL":
		if invalid {
			return Pick(r, []string{
				fmt.Sprintf("%d.%05d", r.Intn(100), r.Intn(100000)), // excess scale
				fmt.Sprintf("%d", 1000000+r.Intn(1000000)),          // too wide for (5,2) and (10,2) stays valid
				"'abc'",
			})
		}
		return fmt.Sprintf("%d.%02d", r.Intn(999), r.Intn(100))
	case "STRING":
		return Pick(r, []string{
			fmt.Sprintf("'s_%d'", r.Intn(10000)),
			"''",
			"'héllo wörld'",
			"'it''s'",
			fmt.Sprintf("'%s'", strings.Repeat("x", 1+r.Intn(12))),
		})
	case "CHAR", "VARCHAR":
		if invalid {
			return fmt.Sprintf("'%s'", strings.Repeat("y", 5+r.Intn(8)))
		}
		return fmt.Sprintf("'%s'", strings.Repeat("a", 1+r.Intn(4)))
	case "BINARY":
		return Pick(r, []string{"X'CAFEBABE'", "X''", fmt.Sprintf("X'%02X'", r.Intn(256))})
	case "DATE":
		if invalid {
			return Pick(r, []string{
				fmt.Sprintf("'2021-02-%d'", 30+r.Intn(10)),
				fmt.Sprintf("'2021-%d-01'", 13+r.Intn(10)),
				"'not-a-date'",
			})
		}
		return Pick(r, []string{
			fmt.Sprintf("DATE '20%02d-%02d-%02d'", r.Intn(40), 1+r.Intn(12), 1+r.Intn(28)),
			fmt.Sprintf("DATE '1%d00-06-01'", 5+r.Intn(4)), // pre-Gregorian territory
			"DATE '1970-01-01'",
		})
	case "TIMESTAMP":
		if invalid {
			return Pick(r, []string{
				fmt.Sprintf("'2021-01-01 %d:00:00'", 25+r.Intn(10)),
				fmt.Sprintf("'2021-02-30 %02d:00:00'", r.Intn(24)),
			})
		}
		return fmt.Sprintf("TIMESTAMP '20%02d-%02d-%02d %02d:%02d:%02d'",
			r.Intn(40), 1+r.Intn(12), 1+r.Intn(28), r.Intn(24), r.Intn(60), r.Intn(60))
	case "ARRAY":
		elem := func() string { return fmt.Sprint(r.Intn(128)) }
		switch r.Intn(3) {
		case 0:
			return "ARRAY()"
		case 1:
			return fmt.Sprintf("ARRAY(%s)", elem())
		default:
			return fmt.Sprintf("ARRAY(%s, %s)", elem(), elem())
		}
	case "MAP":
		if strings.HasPrefix(typ, "MAP<INT") {
			return fmt.Sprintf("MAP(%d, 'v%d')", r.Intn(100), r.Intn(100))
		}
		return fmt.Sprintf("MAP('k%d', %d)", r.Intn(100), r.Intn(100))
	case "STRUCT":
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("NAMED_STRUCT('a', %d, 'b', 's%d')", r.Intn(100), r.Intn(100))
		case 1:
			return "NAMED_STRUCT('a', NULL, 'b', NULL)"
		default:
			return fmt.Sprintf("NAMED_STRUCT('a', %d, 'b', NULL)", r.Intn(100))
		}
	}
	return "NULL"
}
