package core

// The partition oracle's classification bridge: partition-campaign
// findings (internal/partition) enter the same failure vocabulary as
// the data-plane oracles, so crossd streams, reports, and the flight
// recorder treat a CoFI finding like any other oracle violation.

import (
	"fmt"

	"repro/internal/csi"
)

// PartitionFailure lifts one partition-campaign finding into the
// harness failure vocabulary. Partition failures have no test case —
// they come from simulated control-plane timelines, not corpus inputs —
// so Case and Peer stay nil and consumers must not dereference them
// (the crossd stream encoder already guards this).
func PartitionFailure(scenario, signature, detail string) Failure {
	return Failure{
		Oracle:    csi.OraclePartition,
		Signature: signature,
		Detail:    fmt.Sprintf("[%s] %s", scenario, detail),
	}
}
