package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/hivesim"
	"repro/internal/serde"
	"repro/internal/sparksim"
	"repro/internal/sqlval"
)

// classifyErrorReference is classifyError as first written: one
// errors.As per known type, in priority order.
func classifyErrorReference(err error) string {
	var (
		ae  *sparksim.AvroUnavailableError
		ise *sparksim.IncompatibleSchemaError
		sde *hivesim.SerDeError
		ue  *serde.UnsupportedError
		ce  *sqlval.CastError
	)
	switch {
	case errors.As(err, &ae):
		return "avro-unavailable"
	case errors.As(err, &ise):
		return "avro-incompatible-schema"
	case errors.As(err, &sde):
		return "legacy-binary-decimal"
	case errors.As(err, &ue):
		return "avro-map-key"
	case errors.As(err, &ce):
		return classifyCast(ce)
	}
	msg := err.Error()
	if i := strings.IndexByte(msg, ':'); i > 0 {
		msg = msg[:i]
	}
	return "error-" + strings.ReplaceAll(msg, " ", "-")
}

func TestClassifyErrorMatchesReference(t *testing.T) {
	known := []error{
		&sparksim.AvroUnavailableError{Version: "2.3.0"},
		&sparksim.IncompatibleSchemaError{Table: "t", Column: "c", FileType: sqlval.Int, CatalogType: sqlval.String},
		&hivesim.SerDeError{Table: "t", Column: "c", Detail: "legacy binary"},
		&serde.UnsupportedError{Format: "avro", Type: sqlval.Int, Reason: "map key"},
		&sqlval.CastError{From: sqlval.String, To: sqlval.Int, Code: "CAST_OVERFLOW"},
	}
	charCast := &sqlval.CastError{From: sqlval.String, To: sqlval.CharType(3), Code: "EXCEED_CHAR_LENGTH"}
	dateCast := &sqlval.CastError{From: sqlval.String, To: sqlval.Date, Code: "CAST_INVALID_INPUT"}
	errs := map[string]error{
		"unknown":       errors.New("engine stalled"),
		"unknown-colon": errors.New("engine stalled: retry later"),
		// Two CastErrors in one tree: the first one, depth first, wins.
		"two-casts":         errors.Join(charCast, dateCast),
		"two-casts-swapped": fmt.Errorf("insert: %w; %w", dateCast, fmt.Errorf("again: %w", charCast)),
	}
	for i, err := range known {
		errs[fmt.Sprintf("type%d", i)] = err
		errs[fmt.Sprintf("type%d-wrapped", i)] = fmt.Errorf("write: %w", err)
		errs[fmt.Sprintf("type%d-wrapped-twice", i)] = fmt.Errorf("job: %w", fmt.Errorf("write: %w", err))
		// Two known types in one tree, in both orders: the priority
		// decides, not the position.
		for j, other := range known {
			if i != j {
				errs[fmt.Sprintf("types%d,%d", i, j)] = fmt.Errorf("scan: %w; %w", err, fmt.Errorf("cause: %w", other))
			}
		}
	}
	for name, err := range errs {
		if got, want := classifyError(err), classifyErrorReference(err); got != want {
			t.Errorf("%s: classifyError = %q, reference %q", name, got, want)
		}
	}
	if got := classifyError(errs["two-casts"]); got != "insert-charlength" {
		t.Errorf("two casts: %q, want the first cast's insert-charlength", got)
	}
	if got := classifyError(errs["types4,0"]); got != "avro-unavailable" {
		t.Errorf("cast then avro-unavailable: %q, want avro-unavailable", got)
	}
}
