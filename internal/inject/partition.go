package inject

// PartitionDiscrepancy is a cross-system interaction failure that
// surfaces only under a network partition applied inside a specific
// state-inconsistency window — the CoFI class (SNIPPETS.md Snippet 2).
// Unlike the data-plane discrepancies (D*) and the version skews (S*),
// these are control-plane failures: two nodes hold different views of
// shared state, a partition freezes the disagreement, and a later
// management operation acts on the stale side. The partition oracle
// (csi.OraclePartition) isolates them from failures either node could
// produce alone.
// Control-plane problem categories for the partition (P*) family.
// These are manifestations the data-plane taxonomy of §8.2 has no slot
// for: a management operation that reports the wrong outcome (a stop
// that never completes, a kill recorded against a finished app), and
// unbounded resource growth from a reconciliation loop acting on stale
// state. They are deliberately NOT part of Categories(), which is the
// paper's five-category §8.2 census.
const (
	OperationOutcome Category = "wrong-operation-outcome"
	PerfDegradation  Category = "resource-over-allocation"
)

type PartitionDiscrepancy struct {
	ID     string // P1..P7, mirroring the S* skew numbering
	Anchor string // the JIRA issue whose failure mode the scenario reproduces
	Title  string
	// Scenario is the internal/partition scenario name that reproduces
	// the failure.
	Scenario string
	// Invariant is the cross-node consistency invariant whose violation
	// the scenario's ground-truth checks detect.
	Invariant string
	// Categories are the §8.2 problem categories the failure manifests
	// as once the partition freezes the inconsistent views.
	Categories []Category
	// Signatures are the classifier keys scenario violations carry.
	Signatures []string
}

// PartitionRegistry returns the modeled partition discrepancies, in P*
// order. IDs, scenario names, and signatures mirror the
// internal/partition scenario registry one-for-one (tested both ways).
//
//crossvet:unused-export the P* registry: crossvet's registry check reads it by name and TestRegistryRoundTrip pins it to the scenarios
func PartitionRegistry() []PartitionDiscrepancy {
	return []PartitionDiscrepancy{
		{
			ID: "P1", Anchor: "HDFS-15367", Scenario: "hdfs-replica",
			Title:      "NameNode serves replica locations a partitioned DataNode's block report never corrected",
			Invariant:  "every replica location the NameNode lists is backed by a DataNode that holds the block",
			Categories: []Category{CannotRead},
			Signatures: []string{"partition-stale-replica"},
		},
		{
			ID: "P2", Anchor: "HDFS-15235", Scenario: "hdfs-lease",
			Title:      "A lease reassigned during a client GC pause splits the brain: the DataNode pipeline keeps honoring the old holder and rejects the new one",
			Invariant:  "the DataNode pipeline accepts writes only from the NameNode's current lease holder",
			Categories: []Category{InconsistentError},
			Signatures: []string{"partition-lease-split-brain"},
		},
		{
			ID: "P3", Anchor: "YARN-10288", Scenario: "yarn-app-state",
			Title:      "A kill lands on the RM's stale RUNNING state machine after the AM already finished; the cluster record contradicts the real outcome",
			Invariant:  "the RM's application state machine converges to the AM's terminal state",
			Categories: []Category{InconsistentError},
			Signatures: []string{"partition-app-state"},
		},
		{
			ID: "P4", Anchor: "YARN-10301", Scenario: "yarn-service-stop",
			Title:      "Stopping a service whose container already exited retries into the partition forever because the RM's container cache is stale",
			Invariant:  "a requested stop completes once any node knows the container is no longer running",
			Categories: []Category{OperationOutcome},
			Signatures: []string{"partition-stop-lost"},
		},
		{
			ID: "P5", Anchor: "KAFKA-3410", Scenario: "kafka-isr",
			Title:      "The controller elects a lagging follower from its stale ISR copy; acknowledged records vanish from the new leader's log",
			Invariant:  "a consumer's acknowledged offsets never exceed the elected leader's log end",
			Categories: []Category{CannotRead},
			Signatures: []string{"partition-isr-divergence"},
		},
		{
			ID: "P6", Anchor: "HBASE-6060", Scenario: "hbase-region-assign",
			Title:      "A region move whose close RPC is partitioned away leaves the region open on both servers, which accept divergent writes",
			Invariant:  "at most one region server serves a region at any instant",
			Categories: []Category{InconsistentError},
			Signatures: []string{"partition-double-assign"},
		},
		{
			ID: "P7", Anchor: "FLINK-10848", Scenario: "flink-pending-book",
			Title:      "An asymmetric partition drops allocation notifications; the heartbeat re-requests the stale pending book and the RM over-allocates unboundedly",
			Invariant:  "containers the RM grants are eventually acknowledged or released, bounded by the job's target",
			Categories: []Category{PerfDegradation},
			Signatures: []string{"partition-over-allocation"},
		},
	}
}
