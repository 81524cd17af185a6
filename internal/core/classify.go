package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/hivesim"
	"repro/internal/serde"
	"repro/internal/sparksim"
	"repro/internal/sqlval"
)

// classifyError maps an engine error onto a discrepancy signature. The
// signature is the clustering key: distinct root causes get distinct
// signatures, and every failure with the same signature is the same
// discrepancy observed through a different input or interface pair.
func classifyError(err error) string {
	// errors.As moves its target to the heap; one struct holds all five
	// targets, so a call allocates once rather than once per target.
	var t struct {
		ae  *sparksim.AvroUnavailableError
		ise *sparksim.IncompatibleSchemaError
		sde *hivesim.SerDeError
		ue  *serde.UnsupportedError
		ce  *sqlval.CastError
	}
	switch {
	case errors.As(err, &t.ae):
		return "avro-unavailable"
	case errors.As(err, &t.ise):
		return "avro-incompatible-schema"
	case errors.As(err, &t.sde):
		return "legacy-binary-decimal"
	case errors.As(err, &t.ue):
		return "avro-map-key"
	case errors.As(err, &t.ce):
		return classifyCast(t.ce)
	}
	// Unrecognized errors cluster by their leading token so genuinely
	// new failure modes remain visible instead of merging.
	msg := err.Error()
	if i := strings.IndexByte(msg, ':'); i > 0 {
		msg = msg[:i]
	}
	return "error-" + strings.ReplaceAll(msg, " ", "-")
}

func classifyCast(ce *sqlval.CastError) string {
	switch ce.Code {
	case "EXCEED_CHAR_LENGTH", "EXCEED_VARCHAR_LENGTH":
		return "insert-charlength"
	}
	return classifyTargetFamily(ce.To)
}

// classifyTargetFamily names the insert-coercion discrepancy family for
// a destination type: the engines' divergent coercion of data into this
// family is one discrepancy regardless of how the bad value was spelled.
func classifyTargetFamily(t sqlval.Type) string {
	switch t.Kind {
	case sqlval.KindDecimal:
		return "insert-decimal-range"
	case sqlval.KindTinyInt, sqlval.KindSmallInt:
		return "insert-smallint-range"
	case sqlval.KindInt, sqlval.KindBigInt:
		return "insert-int-range"
	case sqlval.KindFloat, sqlval.KindDouble:
		return "insert-float-invalid"
	case sqlval.KindDate, sqlval.KindTimestamp:
		return "insert-datetime-invalid"
	case sqlval.KindBoolean:
		return "insert-boolean-invalid"
	case sqlval.KindChar, sqlval.KindVarchar:
		return "insert-charlength"
	default:
		return fmt.Sprintf("insert-invalid-%s", strings.ToLower(t.Kind.String()))
	}
}

// classifyValueDiff names the discrepancy behind two successfully-read
// values that should have been equal.
func classifyValueDiff(a, b sqlval.Value) string {
	ka, kb := a.Kind(), b.Kind()
	// One widened integral (the Avro INT promotion).
	if a.Type().IsIntegral() && b.Type().IsIntegral() && ka != kb {
		return "integral-widening"
	}
	// CHAR padding: contents equal modulo trailing spaces.
	if a.Type().IsCharacter() && b.Type().IsCharacter() && !a.IsNull() && !b.IsNull() {
		if strings.TrimRight(a.Str(), " ") == strings.TrimRight(b.Str(), " ") && a.Str() != b.Str() {
			return "char-padding"
		}
	}
	if ka == sqlval.KindDate && kb == sqlval.KindDate {
		return "date-rebase"
	}
	if ka == sqlval.KindTimestamp && kb == sqlval.KindTimestamp {
		return "timestamp-zone"
	}
	if ka == sqlval.KindStruct || kb == sqlval.KindStruct {
		if a.IsNull() != b.IsNull() {
			return "struct-null"
		}
	}
	// A stored value versus a silent NULL points at the insert-coercion
	// family of the column.
	if a.IsNull() != b.IsNull() {
		t := a.Type()
		if a.IsNull() {
			t = b.Type()
		}
		return classifyTargetFamily(t)
	}
	return fmt.Sprintf("value-mismatch-%s", strings.ToLower(ka.String()))
}

// outcomeKey summarizes a case for differential comparison: the error
// signature when the case failed, otherwise the read value and its
// type. Warnings are deliberately excluded — the §8.1 oracles compare
// data and behaviour, and warnings are surfaced in the report instead.
func outcomeKey(c *CaseResult) string {
	if c.Write.Err != nil {
		return "werr:" + classifyError(c.Write.Err)
	}
	if c.Read.Err != nil {
		return "rerr:" + classifyError(c.Read.Err)
	}
	if !c.Read.HasRow {
		return "norow"
	}
	v := c.Read.Value
	return "ok:" + v.Kind().String() + ":" + v.String()
}
