// Package serve is the serving layer of the cross-system testing
// framework: a long-running differential-testing service (crossd) that
// accepts test jobs over HTTP, executes them on a shared bounded
// worker pool over core.Run/core.RunTables, and content-addresses the
// results — the job spec is hashed, and completed reports live in an
// LRU+disk cache so an identical resubmission is served without
// re-executing a single case. The cache is sound because campaign and
// corpus runs are bit-identical for a fixed spec regardless of
// parallelism or scheduling.
package serve

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fuzzgen"
	"repro/internal/partition"
)

// Job kinds.
const (
	// KindCorpus runs the Figure-6 corpus: every input × plan × format
	// under the three oracles, optionally under a deployment
	// configuration (a -conf sweep cell, as a service call).
	KindCorpus = "corpus"
	// KindSweep runs the corpus under the default configuration plus
	// every registry fix configuration and diffs the profiles.
	KindSweep = "sweep"
	// KindFuzz runs a fuzz campaign identified by (seed, n, confs).
	KindFuzz = "fuzz"
	// KindSkew runs the version-skew matrix: the corpus over every
	// writer×reader version pair, classifying skew-only discrepancies.
	KindSkew = "skew"
	// KindPartition runs a CoFI partition campaign over the control-plane
	// scenario registry, identified by (seed, scenarios, strategy,
	// trials, hold, schedule).
	KindPartition = "partition"
)

// JobSpec is a submitted job. The spec — not the submission — is the
// unit of identity: two submissions with equal specs share one cached
// result. Parallel is an execution hint and deliberately excluded from
// the cache key (results are bit-identical across worker counts).
type JobSpec struct {
	Kind string `json:"kind"`

	// Corpus/sweep parameters.
	Families    []string          `json:"families,omitempty"`
	Conf        map[string]string `json:"conf,omitempty"`
	InputPrefix string            `json:"input_prefix,omitempty"`

	// Fuzz parameters.
	Seed  uint64 `json:"seed,omitempty"`
	N     int    `json:"n,omitempty"`
	Confs int    `json:"confs,omitempty"`

	// Skew parameters: writer->reader version pairs, each a
	// "wSpark/wHive->rSpark/rHive" spec (a bare "spark/hive" stack is
	// the unskewed pair). Empty means versions.DefaultPairs(). Unknown
	// version profiles are rejected at admission — never normalized to
	// a default, which would alias two different deployments under one
	// cache key.
	Pairs []string `json:"pairs,omitempty"`

	// Partition parameters: the campaign's scenario subset (empty means
	// the full P* registry, in registry order), injection strategy
	// (empty means guided), random-trial budget and hold, and — for the
	// fixed strategy — the explicit cut schedule. All omitempty: specs
	// of other kinds never carry them, so pre-partition cache keys are
	// byte-identical.
	Scenarios []string        `json:"scenarios,omitempty"`
	Strategy  string          `json:"strategy,omitempty"`
	Trials    int             `json:"trials,omitempty"`
	HoldMs    int64           `json:"hold_ms,omitempty"`
	Schedule  []partition.Cut `json:"schedule,omitempty"`

	// Cluster sharding parameters. From offsets a fuzz campaign's
	// generated index range to [From, From+N) — a coordinator splits a
	// campaign into contiguous seed-range sub-jobs. Shard marks a
	// sub-job of a split corpus or fuzz parent: the executor then
	// attaches the merge metadata (failure ranks, shard reproducers)
	// the coordinator needs to reassemble the parent report
	// byte-identically. Both omitempty and zero on every direct
	// submission, so pre-cluster cache keys are byte-identical.
	From  int  `json:"from,omitempty"`
	Shard bool `json:"shard,omitempty"`

	// Parallel is the per-job harness worker count (not part of the
	// cache key; values below 2 run sequentially).
	Parallel int `json:"parallel,omitempty"`
}

// Validate rejects malformed specs before admission.
func (s *JobSpec) Validate() error {
	k, ok := kinds[s.Kind]
	if !ok {
		return fmt.Errorf("serve: unknown job kind %q (want %s, %s, %s, %s, or %s)", s.Kind, KindCorpus, KindSweep, KindFuzz, KindSkew, KindPartition)
	}
	if err := k.validate(s); err != nil {
		return err
	}
	if s.From != 0 && !k.ranged {
		return fmt.Errorf("serve: from applies only to fuzz jobs, got kind %q", s.Kind)
	}
	if s.Shard && !k.sharded {
		return fmt.Errorf("serve: shard applies only to corpus and fuzz jobs, got kind %q", s.Kind)
	}
	if s.Parallel < 0 {
		return fmt.Errorf("serve: parallel must be non-negative, got %d", s.Parallel)
	}
	return nil
}

// keySpec is the canonical content-address input: only fields that can
// change the result bytes. V guards the key schema — bump it when the
// result shape changes so stale disk entries miss instead of lying.
type keySpec struct {
	V        int               `json:"v"`
	Kind     string            `json:"kind"`
	Corpus   string            `json:"corpus,omitempty"`
	Families []string          `json:"families,omitempty"`
	Conf     map[string]string `json:"conf,omitempty"`
	Prefix   string            `json:"prefix,omitempty"`
	Seed     uint64            `json:"seed,omitempty"`
	N        int               `json:"n,omitempty"`
	Confs    int               `json:"confs,omitempty"`
	Pairs    []string          `json:"pairs,omitempty"`
	// Partition fields, appended after the pre-partition schema: all
	// omitempty and never set for other kinds, so every pre-partition
	// cache key encodes to the same bytes as before.
	Scenarios []string        `json:"scenarios,omitempty"`
	Strategy  string          `json:"strategy,omitempty"`
	Trials    int             `json:"trials,omitempty"`
	HoldMs    int64           `json:"hold_ms,omitempty"`
	Schedule  []partition.Cut `json:"schedule,omitempty"`
	// Cluster shard fields, appended after the partition schema: a
	// shard result carries merge metadata a whole-job result does not,
	// so the two must never share a content address. Both omitempty and
	// zero on plain submissions — pre-cluster keys are byte-identical.
	From  int  `json:"from,omitempty"`
	Shard bool `json:"shard,omitempty"`
}

const cacheKeyVersion = 1

// corpusFingerprint hashes the built-in corpus once per process: a
// code change to the input corpus changes every corpus/sweep cache key,
// so a disk cache carried across binaries can never serve stale
// reports.
var corpusFingerprint = sync.OnceValues(func() (string, error) {
	inputs, err := core.BuildCorpus()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, in := range inputs {
		fmt.Fprintf(&b, "%d|%s|%s|%s|%t\n", in.ID, in.Name, in.Type, in.Literal, in.Valid)
	}
	return core.HashBytes([]byte(b.String())), nil
})

// CacheKey returns the spec's content address: the hex sha256 of its
// canonical encoding (defaults resolved, sorted families, canonical JSON
// map order, corpus fingerprint for corpus-backed kinds, no execution
// hints).
func (s *JobSpec) CacheKey() (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	ks := keySpec{V: cacheKeyVersion, Kind: s.Kind, Shard: s.Shard}
	if err := kinds[s.Kind].key(s, &ks); err != nil {
		return "", err
	}
	return core.HashSpec(ks)
}

// FuzzJSON is the machine-readable fuzz-campaign result. Its clusters
// are the campaign's own, in signature order, and never null.
type FuzzJSON struct {
	Seed          uint64            `json:"seed"`
	N             int               `json:"n"`
	From          int               `json:"from,omitempty"`
	Confs         int               `json:"confs"`
	Executed      int               `json:"executed"`
	TableCases    int               `json:"table_cases"`
	Failures      int               `json:"failures"`
	Clusters      []fuzzgen.Cluster `json:"clusters"`
	KnownHit      []int             `json:"known_hit"`
	NewSignatures []string          `json:"new_signatures,omitempty"`
}

// SkewJSON is the machine-readable skew-matrix result: the matrix's
// cells and, beside them, each cell's pair in writer->reader spelling.
type SkewJSON struct {
	Pairs []string        `json:"pairs"`
	Cells []core.SkewCell `json:"cells"`
}

// MergeMeta is the shard-to-coordinator side channel: everything a
// deterministic merge needs that the rendered payloads do not carry.
// Only Shard sub-job results populate it (corpus and fuzz kinds), so
// plain job results are byte-identical to their pre-cluster shape.
type MergeMeta struct {
	// Ranks maps each failure cluster's signature to the rank of its
	// first failure in the global emission order (corpus: the core
	// failure rank; fuzz: cell ordinal + core rank). The merge keeps
	// the Example — and, for fuzz, the reproducer — from the shard
	// whose rank is minimal: exactly the failure the unsharded run sees
	// first. A cluster without a rank fails the merge.
	Ranks map[string]string `json:"ranks,omitempty"`
	// Reproducers are the shard's minimized reproducers (fuzz only);
	// Shrink is pure, so the minimum-rank shard's reproducer is the one
	// the unsharded campaign emits.
	Reproducers []*fuzzgen.Reproducer `json:"reproducers,omitempty"`
}

// JobResult is what /result returns (and what the cache stores,
// verbatim): the job's content address, its spec, the human-readable
// rendering with its sha256, and the kind-specific machine-readable
// payload. Report uses exactly the core.ReportJSON shape crosstest
// -json prints, so CLI and server outputs are diffable.
type JobResult struct {
	Key       string            `json:"key"`
	Kind      string            `json:"kind"`
	Spec      JobSpec           `json:"spec"`
	Rendered  string            `json:"rendered"`
	ReportSHA string            `json:"report_sha256"`
	Report    *core.ReportJSON  `json:"report,omitempty"`
	Fuzz      *FuzzJSON         `json:"fuzz,omitempty"`
	Skew      *SkewJSON         `json:"skew,omitempty"`
	Sweep     []core.SweepCell  `json:"sweep,omitempty"`
	Partition *partition.Result `json:"partition,omitempty"`
	Conf      map[string]string `json:"conf,omitempty"`
	Merge     *MergeMeta        `json:"merge,omitempty"`
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobStatus is the /jobs/{id} view of a job.
type JobStatus struct {
	ID       string  `json:"id"`
	Key      string  `json:"key"`
	Kind     string  `json:"kind"`
	State    string  `json:"state"`
	CacheHit bool    `json:"cache_hit"`
	Error    string  `json:"error,omitempty"`
	Queued   string  `json:"queued_at,omitempty"`
	Started  string  `json:"started_at,omitempty"`
	Finished string  `json:"finished_at,omitempty"`
	Duration float64 `json:"duration_ms,omitempty"`
}

// StreamEvent is one NDJSON line of /jobs/{id}/stream: a failure as an
// oracle fires, then a terminal event.
type StreamEvent struct {
	Type string `json:"type"` // "failure" | "done" | "failed" | "cancelled"
	Job  string `json:"job"`
	Seq  int    `json:"seq"`
	// Trace is the job's root-span trace ID (empty when tracing is
	// off): the same ID the stage histograms carry as exemplars, so an
	// NDJSON failure line joins back to its causal span chain.
	Trace     string `json:"trace,omitempty"`
	Oracle    string `json:"oracle,omitempty"`
	Signature string `json:"signature,omitempty"`
	Detail    string `json:"detail,omitempty"`
	Plan      string `json:"plan,omitempty"`
	Format    string `json:"format,omitempty"`
	Input     string `json:"input,omitempty"`
	Error     string `json:"error,omitempty"`
	ReportSHA string `json:"report_sha256,omitempty"`
	CacheHit  bool   `json:"cache_hit,omitempty"`
}
