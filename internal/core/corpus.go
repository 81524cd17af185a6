// Package core implements the paper's primary tooling contribution: the
// cross-system data-plane testing framework of §8. It generates typed
// test inputs covering every supported data type (valid values to test
// expected behaviour, invalid values to test error handling), writes
// and reads them across the three interfaces of Figure 6 (SparkSQL,
// DataFrame, HiveQL) and the three backend formats (ORC, Parquet,
// Avro), applies the three oracles (write-read, error-handling,
// differential), and clusters the resulting failures into distinct
// discrepancies.
package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sqlparse"
	"repro/internal/sqlval"
)

// Input is one generated test value: a column type, the SQL literal
// inserted through the SQL interfaces, and the natural value handed to
// the DataFrame interface. Valid inputs feed the write-read and
// differential oracles; invalid ones feed the error-handling oracle.
type Input struct {
	ID      int
	Name    string
	Type    sqlval.Type
	Literal string
	Value   sqlval.Value
	Valid   bool

	// Expected is the value the column should hold after a correct
	// write of a valid input (the declared-type coercion of Value).
	Expected sqlval.Value
}

type inputSpec struct {
	name    string
	typ     string
	literal string
	valid   bool
}

// baseSpecs is the hand-written core of the corpus: for every type, a
// set of valid values (boundaries included) and the invalid values that
// exercise the error-handling oracle.
var baseSpecs = []inputSpec{
	// BOOLEAN
	{"bool_true", "BOOLEAN", "true", true},
	{"bool_false", "BOOLEAN", "false", true},
	{"bool_null", "BOOLEAN", "NULL", true},
	{"bool_str_true", "BOOLEAN", "'true'", true},
	{"bool_invalid_yes", "BOOLEAN", "'yes'", false},
	{"bool_invalid_no", "BOOLEAN", "'no'", false},
	{"bool_invalid_word", "BOOLEAN", "'maybe'", false},

	// TINYINT
	{"tinyint_small", "TINYINT", "5", true},
	{"tinyint_min", "TINYINT", "-128", true},
	{"tinyint_max", "TINYINT", "127", true},
	{"tinyint_zero", "TINYINT", "0", true},
	{"tinyint_null", "TINYINT", "NULL", true},
	{"tinyint_over", "TINYINT", "200", false},
	{"tinyint_under", "TINYINT", "-200", false},
	{"tinyint_str", "TINYINT", "'abc'", false},

	// SMALLINT
	{"smallint_small", "SMALLINT", "7", true},
	{"smallint_min", "SMALLINT", "-32768", true},
	{"smallint_max", "SMALLINT", "32767", true},
	{"smallint_null", "SMALLINT", "NULL", true},
	{"smallint_over", "SMALLINT", "40000", false},
	{"smallint_under", "SMALLINT", "-40000", false},

	// INT
	{"int_small", "INT", "42", true},
	{"int_min", "INT", "-2147483648", true},
	{"int_max", "INT", "2147483647", true},
	{"int_null", "INT", "NULL", true},
	{"int_over", "INT", "3000000000", false},
	{"int_under", "INT", "-3000000000", false},
	{"int_str", "INT", "'xyz'", false},

	// BIGINT
	{"bigint_small", "BIGINT", "123456789012", true},
	{"bigint_max", "BIGINT", "9223372036854775807", true},
	{"bigint_null", "BIGINT", "NULL", true},
	{"bigint_over_str", "BIGINT", "'99999999999999999999999'", false},
	{"bigint_str", "BIGINT", "'pqr'", false},

	// FLOAT / DOUBLE
	{"float_pi", "FLOAT", "3.14", true},
	{"float_neg", "FLOAT", "-2.5", true},
	{"float_exp", "FLOAT", "1.5e3", true},
	{"float_null", "FLOAT", "NULL", true},
	{"float_nan_str", "FLOAT", "'NaN'", false},
	{"float_inf_str", "FLOAT", "'Infinity'", false},
	{"float_neginf_str", "FLOAT", "'-Infinity'", false},
	{"float_str", "FLOAT", "'abc'", false},
	{"double_pi", "DOUBLE", "3.141592653589793", true},
	{"double_exp", "DOUBLE", "6.022e23", true},
	{"double_null", "DOUBLE", "NULL", true},
	{"double_nan_str", "DOUBLE", "'NaN'", false},
	{"double_str", "DOUBLE", "'nope'", false},

	// DECIMAL(10,2) and DECIMAL(5,2)
	{"decimal_simple", "DECIMAL(10,2)", "12.34", true},
	{"decimal_neg", "DECIMAL(10,2)", "-99.99", true},
	{"decimal_zero", "DECIMAL(10,2)", "0.00", true},
	{"decimal_null", "DECIMAL(10,2)", "NULL", true},
	{"decimal_excess_precision", "DECIMAL(5,2)", "1.23456", false},
	{"decimal_too_wide", "DECIMAL(5,2)", "123456.78", false},
	{"decimal_str", "DECIMAL(10,2)", "'abc'", false},

	// STRING
	{"string_simple", "STRING", "'hello'", true},
	{"string_empty", "STRING", "''", true},
	{"string_unicode", "STRING", "'héllo wörld'", true},
	{"string_quote", "STRING", "'it''s'", true},
	{"string_null", "STRING", "NULL", true},

	// CHAR / VARCHAR
	{"char_short", "CHAR(4)", "'ab'", true},
	{"char_exact", "CHAR(4)", "'abcd'", true},
	{"char_null", "CHAR(4)", "NULL", true},
	{"char_over", "CHAR(4)", "'abcdef'", false},
	{"varchar_short", "VARCHAR(4)", "'ab'", true},
	{"varchar_exact", "VARCHAR(4)", "'abcd'", true},
	{"varchar_null", "VARCHAR(4)", "NULL", true},
	{"varchar_over", "VARCHAR(4)", "'abcdef'", false},

	// BINARY
	{"binary_simple", "BINARY", "X'CAFEBABE'", true},
	{"binary_empty", "BINARY", "X''", true},
	{"binary_null", "BINARY", "NULL", true},

	// DATE
	{"date_modern", "DATE", "DATE '2021-06-15'", true},
	{"date_epoch", "DATE", "DATE '1970-01-01'", true},
	{"date_pregregorian", "DATE", "DATE '1500-06-01'", true},
	{"date_null", "DATE", "NULL", true},
	{"date_invalid_day", "DATE", "'2021-02-30'", false},
	{"date_invalid_month", "DATE", "'2021-13-01'", false},
	{"date_garbage", "DATE", "'not-a-date'", false},

	// TIMESTAMP
	{"ts_noon", "TIMESTAMP", "TIMESTAMP '2021-06-15 12:00:00'", true},
	{"ts_micros", "TIMESTAMP", "TIMESTAMP '2021-06-15 12:00:00.123456'", true},
	{"ts_null", "TIMESTAMP", "NULL", true},
	{"ts_invalid_hour", "TIMESTAMP", "'2021-01-01 25:00:00'", false},
	{"ts_invalid_day", "TIMESTAMP", "'2021-02-30 10:00:00'", false},

	// ARRAY / MAP / STRUCT
	{"array_int", "ARRAY<INT>", "ARRAY(1, 2, 3)", true},
	{"array_string", "ARRAY<STRING>", "ARRAY('a', 'b')", true},
	{"array_empty", "ARRAY<INT>", "ARRAY()", true},
	{"array_null", "ARRAY<INT>", "NULL", true},
	{"array_tinyint", "ARRAY<TINYINT>", "ARRAY(1, 2)", true},
	{"map_string_int", "MAP<STRING,INT>", "MAP('a', 1, 'b', 2)", true},
	{"map_int_string", "MAP<INT,STRING>", "MAP(1, 'x', 2, 'y')", true},
	{"map_null", "MAP<STRING,INT>", "NULL", true},
	{"struct_simple", "STRUCT<a:INT,b:STRING>", "NAMED_STRUCT('a', 1, 'b', 'x')", true},
	{"struct_all_null", "STRUCT<a:INT,b:STRING>", "NAMED_STRUCT('a', NULL, 'b', NULL)", true},
	{"struct_null", "STRUCT<a:INT,b:STRING>", "NULL", true},
}

// CorpusInputs builds the corpus restricted to the inputs whose name
// has the prefix, the whole corpus for an empty prefix. A prefix that
// matches no input is an error, never a run that silently tests
// nothing.
func CorpusInputs(prefix string) ([]Input, error) {
	inputs, err := BuildCorpus()
	if err != nil || prefix == "" {
		return inputs, err
	}
	inputs = slices.DeleteFunc(inputs, func(in Input) bool { return !strings.HasPrefix(in.Name, prefix) })
	if len(inputs) == 0 {
		return nil, fmt.Errorf("core: input prefix %q matches no corpus input", prefix)
	}
	return inputs, nil
}

// CorpusSize is the total number of generated inputs, matching the
// paper's §8.1 corpus of 422 values (210 valid, 212 invalid).
const (
	CorpusSize    = 422
	CorpusValid   = 210
	CorpusInvalid = 212
)

// BuildCorpus generates the deterministic input corpus. The hand-written
// base covers every type's interesting values; generated families pad
// the corpus to the published size with additional valid strings and
// additional out-of-range/invalid numerics spread across the numeric
// types.
func BuildCorpus() ([]Input, error) {
	specs := append([]inputSpec(nil), baseSpecs...)

	valid, invalid := 0, 0
	for _, s := range specs {
		if s.valid {
			valid++
		} else {
			invalid++
		}
	}

	// Pad valid inputs: strings and ints with generated content.
	for i := 0; valid < CorpusValid; i++ {
		switch i % 3 {
		case 0:
			specs = append(specs, inputSpec{fmt.Sprintf("string_gen_%03d", i), "STRING", fmt.Sprintf("'s_%03d'", i), true})
		case 1:
			specs = append(specs, inputSpec{fmt.Sprintf("int_gen_%03d", i), "INT", fmt.Sprintf("%d", 1000+i*7), true})
		default:
			specs = append(specs, inputSpec{fmt.Sprintf("double_gen_%03d", i), "DOUBLE", fmt.Sprintf("%d.%d", i, i%10), true})
		}
		valid++
	}

	// Pad invalid inputs: range violations and malformed values across
	// the families that the error-handling oracle targets.
	for i := 0; invalid < CorpusInvalid; i++ {
		switch i % 6 {
		case 0:
			specs = append(specs, inputSpec{fmt.Sprintf("int_over_gen_%03d", i), "INT", fmt.Sprintf("%d", 3000000000+int64(i)), false})
		case 1:
			specs = append(specs, inputSpec{fmt.Sprintf("tinyint_over_gen_%03d", i), "TINYINT", fmt.Sprintf("%d", 128+i), false})
		case 2:
			specs = append(specs, inputSpec{fmt.Sprintf("smallint_over_gen_%03d", i), "SMALLINT", fmt.Sprintf("%d", 32768+i), false})
		case 3:
			specs = append(specs, inputSpec{fmt.Sprintf("decimal_over_gen_%03d", i), "DECIMAL(5,2)", fmt.Sprintf("1.2%03d9", i), false})
		case 4:
			specs = append(specs, inputSpec{fmt.Sprintf("date_bad_gen_%03d", i), "DATE", fmt.Sprintf("'2021-02-%d'", 30+i%10), false})
		default:
			specs = append(specs, inputSpec{fmt.Sprintf("varchar_over_gen_%03d", i), "VARCHAR(4)", fmt.Sprintf("'overflow_%03d'", i), false})
		}
		invalid++
	}

	inputs := make([]Input, 0, len(specs))
	for id, s := range specs {
		in, err := buildInput(id, s)
		if err != nil {
			return nil, fmt.Errorf("core: input %q: %w", s.name, err)
		}
		inputs = append(inputs, in)
	}
	return inputs, nil
}

// BuildBaseCorpus generates only the hand-written core of the corpus
// (every type's interesting values without the generated padding) —
// the compact corpus used by the benchmark harness.
func BuildBaseCorpus() ([]Input, error) {
	inputs := make([]Input, 0, len(baseSpecs))
	for id, s := range baseSpecs {
		in, err := buildInput(id, s)
		if err != nil {
			return nil, fmt.Errorf("core: input %q: %w", s.name, err)
		}
		inputs = append(inputs, in)
	}
	return inputs, nil
}

// MakeInput builds one Input from an explicit spec — the entry point
// generative workloads (internal/fuzzgen) use to turn randomized
// (type, literal) pairs into harness inputs. Valid inputs must coerce
// under ANSI semantics (the Expected value); callers that guessed
// validity wrong get an error and can downgrade the spec to invalid.
func MakeInput(id int, name, typ, literal string, valid bool) (Input, error) {
	return buildInput(id, inputSpec{name: name, typ: typ, literal: literal, valid: valid})
}

func buildInput(id int, s inputSpec) (Input, error) {
	typ, err := sqlval.ParseType(s.typ)
	if err != nil {
		return Input{}, err
	}
	// Derive the natural value from the literal exactly as an engine
	// would, so the SQL and DataFrame paths receive the same data.
	stmt, err := sqlparse.Parse(fmt.Sprintf("INSERT INTO probe VALUES (%s)", s.literal))
	if err != nil {
		return Input{}, err
	}
	expr := stmt.(*sqlparse.Insert).Rows[0][0]
	value, err := sqlparse.Eval(expr, sqlval.CastLegacy)
	if err != nil {
		return Input{}, err
	}
	in := Input{ID: id, Name: s.name, Type: typ, Literal: s.literal, Value: value, Valid: s.valid}
	if s.valid {
		expected, err := sqlval.Cast(value, typ, sqlval.CastANSI)
		if err != nil {
			return Input{}, fmt.Errorf("valid input does not coerce: %w", err)
		}
		in.Expected = expected
	}
	return in, nil
}
