package inject

// LoadDiscrepancy is a cross-system interaction failure that needs no
// code defect at all: every component is working as designed, and the
// interaction between a client-side retry policy and a server-side
// queue still drives the composed system into a self-sustaining bad
// state. These are the metastable failures of the workload engine
// (internal/loadgen) — the L* family, mirroring the S* skew and P*
// partition numbering.
// Load-plane problem categories for the L* family. Like the partition
// categories, these are manifestations the data-plane taxonomy of §8.2
// has no slot for — the study's census counts discrepancies between
// systems' data interpretations, not emergent feedback loops — so they
// are deliberately NOT part of Categories().
const (
	// MetastableCollapse: goodput stays collapsed after the trigger
	// that caused the overload has ended.
	MetastableCollapse Category = "metastable-collapse"
	// RetryStorm: clients multiply offered load exactly when capacity
	// is scarcest.
	RetryStorm Category = "sustained-retry-storm"
)

// LoadDiscrepancy is one modeled load-interaction failure.
type LoadDiscrepancy struct {
	ID     string // L1..L3
	Anchor string // the incident report or paper the failure mode reproduces
	Title  string
	// Cell names the phase-diagram coordinate (policy @ peak rps, seed
	// 42 geometry) that reproduces the failure in internal/loadgen.
	Cell string
	// Mitigation is the client- or server-side change that turns the
	// same cell stable or recovering.
	Mitigation string
	// Categories are the load-plane categories above plus any §8.2
	// category the failure manifests as.
	Categories []Category
	// Signatures are the classifier keys (loadgen's Sig* constants)
	// that map classified cells onto this entry — mirrored one-for-one
	// with the loadgen classifier, tested from both packages.
	Signatures []string
}

// LoadRegistry returns the modeled load discrepancies in L* order.
func LoadRegistry() []LoadDiscrepancy {
	return []LoadDiscrepancy{
		{
			ID: "L1", Anchor: "aws-dynamodb-2015-09-20",
			Title:      "A transient capacity dip outlives its trigger: timed-out requests are retried into the full queue, the server burns capacity completing orphaned work, and goodput stays collapsed after load returns to normal",
			Cell:       "naive @ 800 rps",
			Mitigation: "server-side token-bucket admission (reject cheaply at the door) or a client-side circuit breaker with terminal shed",
			Categories: []Category{MetastableCollapse, RetryStorm},
			Signatures: []string{"metastable-collapse"},
		},
		{
			ID: "L2", Anchor: "osdi22-metastable-failures-in-the-wild",
			Title:      "Retry amplification as the sustaining effect: post-trigger offered load is a multiple of arrivals, so the system cannot drain even at sub-capacity demand",
			Cell:       "naive @ 1600 rps",
			Mitigation: "capped exponential backoff bounds the amplification factor; honoring Retry-After aligns retries with drain capacity",
			Categories: []Category{RetryStorm},
			Signatures: []string{"retry-storm"},
		},
		{
			ID: "L3", Anchor: "aws-builders-library:timeouts-retries-backoff-jitter",
			Title:      "Synchronized backoff without jitter re-clusters retries into bursts that saturate the queue at each deadline boundary",
			Cell:       "backoff @ 800 rps",
			Mitigation: "full jitter spreads each retry uniformly over its backoff window, dissolving the bursts",
			Categories: []Category{RetryStorm},
			Signatures: []string{"thundering-herd"},
		},
	}
}
