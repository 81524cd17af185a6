package core

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/csi"
	"repro/internal/inject"
)

// The report helpers were previously only exercised through the golden
// Figure-6 pin; these tests pin their behaviour on the two boundary
// shapes — no failures at all, and exactly one failure.

func emptyReport() *Report { return buildReport(nil) }

func singleFailureReport(t *testing.T) *Report {
	t.Helper()
	in, err := MakeInput(1, "char_pad", "CHAR(4)", "'ab'", true)
	if err != nil {
		t.Fatal(err)
	}
	c := &CaseResult{Input: &in, Plan: Plans()[0], Format: "orc", Table: "t_single"}
	return buildReport([]Failure{{
		Oracle:    csi.OracleWriteRead,
		Case:      c,
		Signature: "char-padding", // registry #8: TypeViolation + CustomConfig, generic module
		Detail:    "wrote 'ab  ', read 'ab'",
	}})
}

func TestReportEmpty(t *testing.T) {
	r := emptyReport()
	if len(r.Found) != 0 {
		t.Fatalf("empty report has %d found clusters", len(r.Found))
	}
	j := r.JSON()
	if len(j.Categories) != 0 {
		t.Errorf("category tallies on empty report = %v, want empty", j.Categories)
	}
	if j.InConnector != 0 || j.Generic != 0 {
		t.Errorf("connector locality on empty report = %d/%d, want 0/0", j.InConnector, j.Generic)
	}
	text := r.Render()
	for _, want := range []string{
		"Distinct discrepancies: 0",
		"Oracle failures: wr=0 eh=0 difft=0",
		"0 in dedicated connectors, 0 in generic engine code",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("empty Render missing %q:\n%s", want, text)
		}
	}
}

func TestReportSingleFailure(t *testing.T) {
	r := singleFailureReport(t)
	if len(r.Found) != 1 {
		t.Fatalf("found %d clusters, want 1", len(r.Found))
	}
	f := r.Found[0]
	if f.Known == nil || f.Known.Number != 8 {
		t.Fatalf("char-padding did not map to registry #8: %+v", f.Known)
	}
	j := r.JSON()
	if counts := j.Categories; counts[string(inject.TypeViolation)] != 1 || counts[string(inject.CustomConfig)] != 1 {
		t.Errorf("category tallies = %v, want type-violation=1 custom-config=1", counts)
	}
	if j.InConnector != 0 || j.Generic != 1 {
		t.Errorf("connector locality = %d/%d, want 0 connector / 1 generic", j.InConnector, j.Generic)
	}
	text := r.Render()
	for _, want := range []string{
		"Oracle failures: wr=1 eh=0 difft=0",
		"Distinct discrepancies: 1",
		"#8  SPARK-40616",
		"resolved by: spark.sql.readSideCharPadding=true",
		"example: " + f.Example(),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("single-failure Render missing %q:\n%s", want, text)
		}
	}
}

func TestReportJSONShape(t *testing.T) {
	j := singleFailureReport(t).JSON()
	if j.Distinct != 1 || len(j.Found) != 1 {
		t.Fatalf("JSON distinct=%d found=%d, want 1/1", j.Distinct, len(j.Found))
	}
	fj := j.Found[0]
	if fj.Signature != "char-padding" || fj.Known != 8 || fj.JIRA != "SPARK-40616" || fj.Failures != 1 {
		t.Errorf("FoundJSON = %+v", fj)
	}
	if j.OracleFailures["wr"] != 1 || j.OracleFailures["eh"] != 0 || j.OracleFailures["difft"] != 0 {
		t.Errorf("OracleFailures = %v", j.OracleFailures)
	}
	if len(j.KnownNumbers) != 1 || j.KnownNumbers[0] != 8 || len(j.NewSignatures) != 0 {
		t.Errorf("known=%v new=%v", j.KnownNumbers, j.NewSignatures)
	}

	ej := emptyReport().JSON()
	if ej.Distinct != 0 || len(ej.Found) != 0 || ej.OracleFailures["wr"] != 0 {
		t.Errorf("empty JSON = %+v", ej)
	}
}

// Each cluster keeps its failures in emission order, in a slice sized
// exactly to them.
func TestReportClustersExactSize(t *testing.T) {
	sigs := []string{"char-padding", "zz-unknown", "char-padding", "date-rebase", "zz-unknown", "char-padding"}
	failures := make([]Failure, len(sigs))
	for i, sig := range sigs {
		failures[i] = Failure{Oracle: csi.OracleWriteRead, Signature: sig, Rank: strconv.Itoa(i)}
	}
	want := map[string]string{"char-padding": "025", "date-rebase": "3", "zz-unknown": "14"}
	r := buildReport(failures)
	if len(r.Found) != len(want) {
		t.Fatalf("found %d clusters, want %d", len(r.Found), len(want))
	}
	for _, f := range r.Found {
		var ranks string
		for _, ff := range f.Failures {
			ranks += ff.Rank
		}
		if ranks != want[f.Signature] || cap(f.Failures) != len(f.Failures) {
			t.Errorf("cluster %s: ranks %q len %d cap %d, want ranks %q and cap = len",
				f.Signature, ranks, len(f.Failures), cap(f.Failures), want[f.Signature])
		}
	}
}
