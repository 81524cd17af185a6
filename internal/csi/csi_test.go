package csi

import "testing"

func TestPlaneString(t *testing.T) {
	cases := map[Plane]string{
		ControlPlane:    "Control",
		DataPlane:       "Data",
		ManagementPlane: "Management",
		Plane(9):        "Plane(9)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestOracleString(t *testing.T) {
	cases := map[Oracle]string{
		OracleWriteRead:     "wr",
		OracleErrorHandling: "eh",
		OracleDifferential:  "difft",
		Oracle(7):           "Oracle(7)",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("oracle = %q, want %q", got, want)
		}
	}
}

func TestInteractionString(t *testing.T) {
	i := Interaction{Upstream: Spark, Downstream: Hive}
	if i.String() != "Spark->Hive" {
		t.Errorf("got %q", i.String())
	}
}

func TestIssueIDSynthesized(t *testing.T) {
	if !IssueID("CSI-1001").Synthesized() {
		t.Error("CSI- ids are synthesized")
	}
	for _, id := range []IssueID{"SPARK-27239", "FLINK-12342", "X", ""} {
		if id.Synthesized() {
			t.Errorf("%s should not be synthesized", id)
		}
	}
}
