// Package csi defines the shared vocabulary of the cross-system
// interaction (CSI) failure study: the systems under study, the logical
// interaction planes, oracle identifiers, and the discrepancy registry
// keys used across the simulators and the testing framework.
//
// The definitions follow §2 of "Fail through the Cracks: Cross-System
// Interaction Failures in Modern Cloud Systems" (EuroSys '23).
package csi

import "fmt"

// System identifies one of the seven open-source systems in the study
// (Table 1) plus the simulated substrates they interact with.
type System string

// The systems studied in the paper.
const (
	Spark System = "Spark"
	Hive  System = "Hive"
	YARN  System = "YARN"
	HDFS  System = "HDFS"
	Flink System = "Flink"
	Kafka System = "Kafka"
	HBase System = "HBase"
)

// SerDe identifies the serialization/deserialization boundary —
// file-format encode/decode — that every data-plane interaction
// crosses. It is not one of the seven studied systems but is a
// first-class hop in propagation chains (e.g. Spark → SerDe → HDFS).
const SerDe System = "SerDe"

// Plane is a logical interaction plane as defined in §2.2.
type Plane int

// The three planes of §2.2.
const (
	ControlPlane Plane = iota
	DataPlane
	ManagementPlane
)

// String returns the plane name used in the paper's tables.
func (p Plane) String() string {
	switch p {
	case ControlPlane:
		return "Control"
	case DataPlane:
		return "Data"
	case ManagementPlane:
		return "Management"
	default:
		return fmt.Sprintf("Plane(%d)", int(p))
	}
}

// Oracle identifies one of the three test oracles of §8.1.
type Oracle int

// The three oracles applied by the cross-testing framework.
const (
	// OracleWriteRead checks that valid data read back equals the data
	// written earlier, possibly through a different interface.
	OracleWriteRead Oracle = iota
	// OracleErrorHandling checks that invalid data is either rejected or
	// corrected with feedback during the write.
	OracleErrorHandling
	// OracleDifferential checks that results and behavior are consistent
	// across interfaces and backend formats.
	OracleDifferential
	// OracleVersionSkew checks that results and behavior are consistent
	// across writer-stack and reader-stack versions: the same data
	// written/read through differently-versioned deployments of the same
	// systems. It extends the differential oracle along the upgrade
	// axis the paper identifies as a leading CSI failure trigger (§5).
	OracleVersionSkew
	// OraclePartition checks that nodes of a control-plane deployment
	// converge to one view of shared state (leases, replica sets, app
	// state machines, ISR membership, region assignment) when the
	// network between them is cut and held — the CoFI fault model for
	// the control-plane CSI failures the study finds dominate real
	// incidents.
	OraclePartition
)

// String returns the short oracle name used in the artifact's logs
// (wr, eh, difft).
func (o Oracle) String() string {
	switch o {
	case OracleWriteRead:
		return "wr"
	case OracleErrorHandling:
		return "eh"
	case OracleDifferential:
		return "difft"
	case OracleVersionSkew:
		return "skew"
	case OraclePartition:
		return "part"
	default:
		return fmt.Sprintf("Oracle(%d)", int(o))
	}
}

// Interaction names an upstream→downstream relationship from Table 1.
type Interaction struct {
	Upstream   System
	Downstream System
}

// String formats the interaction as "Upstream->Downstream".
func (i Interaction) String() string {
	return string(i.Upstream) + "->" + string(i.Downstream)
}

// IssueID is a JIRA-style issue identifier such as "SPARK-27239".
// Synthesized dataset records use the reserved "CSI-" project prefix.
type IssueID string

// Synthesized reports whether the id denotes a synthesized record rather
// than a real JIRA issue named in the paper.
func (id IssueID) Synthesized() bool {
	return len(id) >= 4 && id[:4] == "CSI-"
}
