package dataset

import "repro/internal/csi"

// Provider is a public cloud vendor.
type Provider string

// The three providers of §3.
const (
	GCP   Provider = "GCP"
	Azure Provider = "Azure"
	AWS   Provider = "AWS"
)

// IncidentSampleSizes is the §3 sample: 20 recent GCP incidents, 20
// recent Azure incidents, and all 15 AWS incidents with post-event
// summaries — 55 in total.
var IncidentSampleSizes = map[Provider]int{GCP: 20, Azure: 20, AWS: 15}

// Incident is one CSI-failure-induced cloud incident from the §3
// study. Only the 11 CSI incidents carry records; the remaining 44
// sampled incidents are represented by the sample sizes above.
type Incident struct {
	Provider        Provider
	Title           string
	Plane           csi.Plane
	DurationMinutes int
	// CascadedExternally: the incident further impaired other external
	// production services that depend on the failed one (8/11).
	CascadedExternally bool
	// MentionedCodeFix: the postmortem mentioned code fixes related to
	// the interactions (4/11).
	MentionedCodeFix bool
}

// CSIIncidents returns the 11 CSI-failure-induced incidents of
// Finding 1. Durations are reconstructed to match the published
// statistics: minimum 10 minutes, maximum 19 hours, median 106
// minutes. The first record is the §1 GCP User-ID outage (monitoring ×
// quota cross-system interaction).
func CSIIncidents() []Incident {
	return []Incident{
		{GCP, "User-ID service outage: deregistered monitor reported usage 0; quota system shrank the quota", csi.ManagementPlane, 47, true, true},
		{GCP, "BigQuery metadata-query interaction failure", csi.DataPlane, 10, false, false},
		{GCP, "App Engine scheduling interaction failure", csi.ControlPlane, 106, true, true},
		{GCP, "Compute Engine networking configuration-update interaction failure", csi.ManagementPlane, 132, true, false},
		{Azure, "Storage front-end / placement service capacity interaction", csi.ControlPlane, 1140, true, false},
		{Azure, "Configuration propagation between traffic manager and DNS control", csi.ManagementPlane, 95, true, true},
		{Azure, "Data-format mismatch between telemetry pipeline and ingestion service", csi.DataPlane, 240, false, false},
		{Azure, "Quota service misread monitoring counters after schema change", csi.ManagementPlane, 75, true, false},
		{AWS, "Internal service scaling interaction overloaded a dependent subsystem", csi.ControlPlane, 416, true, true},
		{AWS, "Cross-service configuration deployment interaction", csi.ManagementPlane, 188, true, false},
		{AWS, "Metadata interaction between storage index and request router", csi.DataPlane, 29, false, false},
	}
}

// TotalIncidents is the §3 sample size.
func TotalIncidents() int {
	n := 0
	for _, v := range IncidentSampleSizes {
		n += v
	}
	return n
}

// CBSLabel is the re-labeling outcome of a CBS cross-labeled issue
// under this paper's §2 definitions.
type CBSLabel int

// The three outcomes.
const (
	CBSNotCrossSystem CBSLabel = iota
	CBSDependencyFailure
	CBSCSIFailure
)

// CBSIssue is one issue from the 2014 Cloud Bug Study slice.
type CBSIssue struct {
	Label CBSLabel
	// Plane is set for CSI failures only.
	Plane csi.Plane
}

// CBSSlice returns the re-labeled CBS sample of §4: 105 issues — 39
// CSI failures (27 control-plane, i.e. the 69% of §5.1, 7 data, 5
// management), 15 dependency failures, and 51 issues that are not
// cross-system.
func CBSSlice() []CBSIssue {
	var out []CBSIssue
	add := func(n int, label CBSLabel, plane csi.Plane) {
		for i := 0; i < n; i++ {
			out = append(out, CBSIssue{Label: label, Plane: plane})
		}
	}
	add(27, CBSCSIFailure, csi.ControlPlane)
	add(7, CBSCSIFailure, csi.DataPlane)
	add(5, CBSCSIFailure, csi.ManagementPlane)
	add(15, CBSDependencyFailure, csi.ControlPlane)
	add(51, CBSNotCrossSystem, csi.ControlPlane)
	return out
}

// SamplingSummary captures the §4 collection statistics: 1428 candidate
// issues, a 360-issue random sample, 120 CSI failures, 26 dependency
// failures, and the remainder not cross-system.
type SamplingSummary struct {
	CandidateIssues    int
	SampledIssues      int
	CSIFailures        int
	DependencyFailures int
	NotCrossSystem     int
}

// Sampling returns the §4 statistics.
//
//crossvet:unused-export the §4 sampling counts, pinned by TestSamplingSummary
func Sampling() SamplingSummary {
	return SamplingSummary{
		CandidateIssues:    1428,
		SampledIssues:      360,
		CSIFailures:        120,
		DependencyFailures: 26,
		NotCrossSystem:     360 - 120 - 26,
	}
}
