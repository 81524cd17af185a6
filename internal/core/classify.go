package core

import (
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
	var k knownErrors
	k.walk(err)
	// The priority the types had as errors.As targets.
	switch {
	case k.avro:
		return "avro-unavailable"
	case k.schema:
		return "avro-incompatible-schema"
	case k.serDe:
		return "legacy-binary-decimal"
	case k.unsupported:
		return "avro-map-key"
	case k.cast != nil:
		return classifyCast(k.cast)
	}
	// Unrecognized errors cluster by their leading token so genuinely
	// new failure modes remain visible instead of merging.
	msg := err.Error()
	if i := strings.IndexByte(msg, ':'); i > 0 {
		msg = msg[:i]
	}
	return "error-" + strings.ReplaceAll(msg, " ", "-")
}

// knownErrors records which of the error types classifyError knows an
// error's tree holds, keeping the first CastError.
type knownErrors struct {
	avro, schema, serDe, unsupported bool
	cast                             *sqlval.CastError
}

// walk visits err's tree in the order errors.As does (depth first,
// each error before what it wraps) with one type switch per error, so
// a classification costs no errors.As target on the heap. No error of
// this module implements an As method, which errors.As would consult.
func (k *knownErrors) walk(err error) {
	for err != nil {
		switch t := err.(type) {
		case *sparksim.AvroUnavailableError:
			k.avro = true
		case *sparksim.IncompatibleSchemaError:
			k.schema = true
		case *hivesim.SerDeError:
			k.serDe = true
		case *serde.UnsupportedError:
			k.unsupported = true
		case *sqlval.CastError:
			if k.cast == nil {
				k.cast = t
			}
		}
		switch u := err.(type) {
		case interface{ Unwrap() error }:
			err = u.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				k.walk(e)
			}
			return
		default:
			return
		}
	}
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

// outcome summarizes a case for differential comparison: the error
// signature when the case failed, otherwise the read value and its
// type. Warnings are deliberately excluded — the §8.1 oracles compare
// data and behaviour, and warnings are surfaced in the report instead.
// The oracles compare outcomes as structs and render one (String) only
// for a failure's Detail. Equal structs render equal strings and the
// converse holds too: the tags render distinct prefixes, and no Kind
// name contains ':'.
type outcome struct {
	tag  string      // "werr:", "rerr:", "norow" or "ok:"; "" for no case
	sig  string      // werr and rerr: the error's signature
	kind sqlval.Kind // ok only
	val  string      // ok only: the value's text
}

func outcomeKey(c *CaseResult) outcome {
	switch {
	case c.Write.Err != nil:
		return outcome{tag: "werr:", sig: classifyError(c.Write.Err)}
	case c.Read.Err != nil:
		return outcome{tag: "rerr:", sig: classifyError(c.Read.Err)}
	case !c.Read.HasRow:
		return outcome{tag: "norow"}
	}
	v := c.Read.Value
	return outcome{tag: "ok:", kind: v.Kind(), val: v.String()}
}

// String renders the outcome as the oracles' details print it:
// werr:<sig>, rerr:<sig>, norow or ok:<KIND>:<value>.
func (o outcome) String() string {
	if o.tag == "ok:" {
		return o.tag + o.kind.String() + ":" + o.val
	}
	return o.tag + o.sig
}
