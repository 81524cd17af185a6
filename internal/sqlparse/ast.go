package sqlparse

import "repro/internal/sqlval"

// Statement is a parsed SQL statement: one of *CreateTable, *DropTable,
// *Insert, or *Select.
type Statement interface{ stmt() }

// ColumnDef is a column declaration in CREATE TABLE.
type ColumnDef struct {
	Name string // original spelling; engines apply their own case rules
	Type sqlval.Type
}

// CreateTable is CREATE TABLE [IF NOT EXISTS] t (cols)
// [PARTITIONED BY (cols)] [STORED AS fmt] [TBLPROPERTIES (...)].
type CreateTable struct {
	Table       string
	IfNotExists bool
	Columns     []ColumnDef
	// PartitionedBy are the partition columns; their values select the
	// directory a row lands in.
	PartitionedBy []ColumnDef
	Format        string            // "orc", "parquet", "avro"; empty means engine default
	Props         map[string]string // TBLPROPERTIES; nil when absent
}

func (*CreateTable) stmt() {}

// DropTable is DROP TABLE [IF EXISTS] t.
type DropTable struct {
	Table    string
	IfExists bool
}

func (*DropTable) stmt() {}

// Insert is INSERT INTO t VALUES (...), (...) or INSERT OVERWRITE
// TABLE t VALUES (...), which replaces the table contents.
type Insert struct {
	Table     string
	Overwrite bool
	Rows      [][]Expr
}

func (*Insert) stmt() {}

// SelectItem is a projected column; Star selects all columns. Agg, when
// non-empty, names an aggregate function ("count", "sum", "min", "max",
// "avg") applied to the column (or to * for count).
type SelectItem struct {
	Star   bool
	Column string
	Agg    string
}

// Where is a simple comparison predicate column OP literal.
type Where struct {
	Column string
	Op     string // =, !=, <, <=, >, >=
	Value  Expr
}

// OrderBy is ORDER BY column [ASC|DESC].
type OrderBy struct {
	Column string
	Desc   bool
}

// Select is SELECT items FROM t [WHERE pred] [GROUP BY col]
// [ORDER BY col] [LIMIT n]. Limit is -1 when absent.
type Select struct {
	Items   []SelectItem
	Table   string
	Where   *Where
	GroupBy string // single grouping column; empty when absent
	OrderBy *OrderBy
	Limit   int
}

func (*Select) stmt() {}

// Expr is a literal expression. Engines convert it to a typed value
// with their own coercion rules via Eval.
type Expr interface{ expr() }

// NullLit is the NULL literal.
type NullLit struct{}

func (NullLit) expr() {}

// BoolLit is TRUE or FALSE.
type BoolLit struct{ Value bool }

func (BoolLit) expr() {}

// NumberLit is an unparsed numeric literal; Neg records a unary minus.
type NumberLit struct {
	Raw string
	Neg bool
}

func (NumberLit) expr() {}

// StringLit is a quoted string.
type StringLit struct{ Value string }

func (StringLit) expr() {}

// BinaryLit is an X'...' hex literal.
type BinaryLit struct{ Value []byte }

func (BinaryLit) expr() {}

// TypedLit is DATE '...' or TIMESTAMP '...'.
type TypedLit struct {
	Type sqlval.Type
	Raw  string
}

func (TypedLit) expr() {}

// ArrayLit is ARRAY(e1, e2, ...).
type ArrayLit struct{ Items []Expr }

func (ArrayLit) expr() {}

// MapLit is MAP(k1, v1, k2, v2, ...).
type MapLit struct {
	Keys []Expr
	Vals []Expr
}

func (MapLit) expr() {}

// StructLit is NAMED_STRUCT('name1', e1, 'name2', e2, ...).
type StructLit struct {
	Names []string
	Vals  []Expr
}

func (StructLit) expr() {}

// CastExpr is CAST(e AS type).
type CastExpr struct {
	Inner Expr
	To    sqlval.Type
}

func (CastExpr) expr() {}
