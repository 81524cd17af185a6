// Package flinksim simulates the Flink-side halves of the paper's
// control- and management-plane CSI failures:
//
//   - the YARN resource client of FLINK-12342 (Figure 1) with all four
//     behaviours of the fix ladder (Figure 5): the buggy synchronous
//     assumption, the two interim workarounds, and the asynchronous
//     resolution;
//   - the JobManager memory sizing of FLINK-887, which is killed by
//     YARN's pmem monitor when the JVM is sized without headroom;
//   - a Kafka source that optionally assumes contiguous offsets, the
//     SPARK-19361 / streaming-plane wrong-API-assumption pattern;
//   - the Hive catalog type mapping of FLINK-17189, which stores
//     PROCTIME columns as Hive TIMESTAMP but cannot translate them
//     back.
package flinksim

import (
	"fmt"
	"strconv"

	"repro/internal/csi"
	"repro/internal/kafkasim"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/yarnsim"
)

// ClientMode selects the resource client's behaviour, following the
// FLINK-12342 fix ladder of Figure 5.
type ClientMode int

// The four behaviours.
const (
	// ModeBuggy is the original behaviour: every heartbeat re-requests
	// the aggregated pending containers plus the current requirement,
	// assuming the previous round completed synchronously.
	ModeBuggy ClientMode = iota
	// ModeWorkaround1 is Figure 5 workaround #1: the heartbeat interval
	// becomes configurable (and is set large enough for allocations to
	// land), reducing the chance of re-requests.
	ModeWorkaround1
	// ModeWorkaround2 is Figure 5 workaround #2: container requests are
	// removed from the pending book as soon as they are submitted, so a
	// heartbeat only tops up the true deficit.
	ModeWorkaround2
	// ModeAsync is the resolution: the client uses the asynchronous
	// NMClientAsync API and reacts to allocation callbacks instead of
	// polling, submitting each request exactly once.
	ModeAsync
)

// String names the mode as in Figure 5.
func (m ClientMode) String() string {
	switch m {
	case ModeBuggy:
		return "buggy-sync-assumption"
	case ModeWorkaround1:
		return "workaround1-configurable-interval"
	case ModeWorkaround2:
		return "workaround2-remove-requests-early"
	case ModeAsync:
		return "resolution3-nmclient-async"
	default:
		return fmt.Sprintf("ClientMode(%d)", int(m))
	}
}

// RMGateway abstracts the client->RM request channel so a fault plane
// can interpose on it (drop requests, delay or drop allocation
// callbacks). *yarnsim.ResourceManager satisfies it directly.
type RMGateway interface {
	RequestContainers(n int, ask yarnsim.Resource,
		onAllocated func(*yarnsim.Container), onError func(error))
}

// ResourceClientOptions configure a YarnResourceClient.
type ResourceClientOptions struct {
	Mode ClientMode
	// Target is C, the number of containers the job requires.
	Target int
	// HeartbeatMs is the request interval (500 ms in FLINK-12342;
	// workaround #1 raises it).
	HeartbeatMs int64
	// Ask is the per-container resource request.
	Ask yarnsim.Resource
	// Gateway, when non-nil, carries container requests instead of the
	// direct RM call — the seam the partition fault plane cuts.
	Gateway RMGateway
}

// YarnResourceClient is Flink's container-requesting client.
type YarnResourceClient struct {
	sim  *vclock.Sim
	rm   *yarnsim.ResourceManager
	gw   RMGateway
	opts ResourceClientOptions

	allocated  int
	submitted  int // asks submitted and not yet allocated
	totalAsked int
	containers []*yarnsim.Container
	errs       []error
	ticker     *vclock.Timer
	doneAtMs   int64

	tracer   *obs.Tracer
	traceTop *obs.Span
}

// SetTrace attaches a tracer and default parent span; the client then
// emits a Flink control-plane span per container request round. The
// client runs single-threaded on the vclock scheduler. A nil tracer
// disables emission.
func (c *YarnResourceClient) SetTrace(tr *obs.Tracer, parent *obs.Span) {
	c.tracer = tr
	c.traceTop = parent
}

// NewYarnResourceClient creates the client; Start begins requesting.
func NewYarnResourceClient(sim *vclock.Sim, rm *yarnsim.ResourceManager, opts ResourceClientOptions) *YarnResourceClient {
	if opts.HeartbeatMs == 0 {
		opts.HeartbeatMs = 500
	}
	if opts.Ask.MemoryMB == 0 {
		opts.Ask = yarnsim.Resource{MemoryMB: 1024, Vcores: 1}
	}
	gw := opts.Gateway
	if gw == nil {
		gw = rm
	}
	return &YarnResourceClient{sim: sim, rm: rm, gw: gw, opts: opts, doneAtMs: -1}
}

// Start submits the initial request and, in the polling modes, arms the
// heartbeat.
func (c *YarnResourceClient) Start() {
	c.request(c.opts.Target)
	if c.opts.Mode == ModeAsync {
		return // callback-driven: no polling loop
	}
	c.ticker = c.sim.Every(c.opts.HeartbeatMs, func() { c.heartbeat() })
}

// Stop cancels the heartbeat.
func (c *YarnResourceClient) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

func (c *YarnResourceClient) heartbeat() {
	deficit := c.opts.Target - c.allocated
	if deficit <= 0 {
		return
	}
	switch c.opts.Mode {
	case ModeBuggy, ModeWorkaround1:
		// The synchronous assumption: if the containers have not shown
		// up by now, re-request the aggregated pending count plus the
		// requirement (the Figure 1 storm).
		if c.submitted > 0 {
			c.request(c.submitted + deficit)
		} else {
			c.request(deficit)
		}
	case ModeWorkaround2:
		// Requests were removed from the book at submission; top up the
		// true deficit only.
		if need := deficit - c.submitted; need > 0 {
			c.request(need)
		}
	}
}

func (c *YarnResourceClient) request(n int) {
	if n <= 0 {
		return
	}
	if c.tracer != nil {
		c.tracer.Span(c.traceTop, csi.Flink, csi.ControlPlane, "request-containers").
			Set("n", strconv.Itoa(n)).
			Set("mode", c.opts.Mode.String()).End()
	}
	c.totalAsked += n
	c.submitted += n
	c.gw.RequestContainers(n, c.opts.Ask,
		func(container *yarnsim.Container) {
			c.submitted--
			if c.allocated >= c.opts.Target {
				// Excess container from the storm: hand it straight back.
				c.rm.Release(container.ID)
				return
			}
			c.allocated++
			c.containers = append(c.containers, container)
			if c.allocated == c.opts.Target && c.doneAtMs < 0 {
				c.doneAtMs = c.sim.Now()
				c.Stop()
			}
		},
		func(err error) {
			c.submitted--
			c.errs = append(c.errs, err)
		})
}

// Allocated returns the number of containers the job holds.
func (c *YarnResourceClient) Allocated() int { return c.allocated }

// Pending returns the asks submitted and not yet answered — the
// "pending book" whose staleness drives the re-request storm.
func (c *YarnResourceClient) Pending() int { return c.submitted }

// TotalRequested returns the total container asks submitted — the
// Figure 1 metric that explodes to thousands under the buggy mode.
func (c *YarnResourceClient) TotalRequested() int { return c.totalAsked }

// Errors returns the allocation errors observed.
func (c *YarnResourceClient) Errors() []error { return c.errs }

// DoneAt returns the virtual time the target was reached (-1 if never).
func (c *YarnResourceClient) DoneAt() int64 { return c.doneAtMs }

// Containers returns the held containers.
func (c *YarnResourceClient) Containers() []*yarnsim.Container { return c.containers }

// --- FLINK-887: JobManager JVM sizing vs the pmem monitor --------------

// JVMSizing selects how the JobManager derives its JVM heap from the
// container's memory allocation.
type JVMSizing int

// The two sizings.
const (
	// SizingNoHeadroom sets the heap to the full container memory; the
	// process tree (heap + JVM overhead) then exceeds the container
	// limit and the pmem monitor kills it (FLINK-887).
	SizingNoHeadroom JVMSizing = iota
	// SizingWithCutoff reserves a fraction of the container memory for
	// off-heap overhead, the eventual fix.
	SizingWithCutoff
)

// JVMOverheadMB is the simulated off-heap overhead of the JobManager
// process (metaspace, threads, direct buffers).
const JVMOverheadMB = 256

// CutoffRatio is the fraction of container memory reserved for
// overhead under SizingWithCutoff.
const CutoffRatio = 0.25

// ProcessPmemMB returns the physical memory the JobManager process
// tree uses inside a container of the given size under the sizing
// policy.
func ProcessPmemMB(containerMB int64, sizing JVMSizing) int64 {
	switch sizing {
	case SizingWithCutoff:
		heap := int64(float64(containerMB) * (1 - CutoffRatio))
		return heap + JVMOverheadMB
	default:
		return containerMB + JVMOverheadMB
	}
}

// --- Kafka source -------------------------------------------------------

// KafkaSourceOptions configure a source.
type KafkaSourceOptions struct {
	Topic     string
	Partition int
	// AssumeContiguousOffsets reproduces the wrong API assumption of
	// SPARK-19361: the consumer treats any offset gap as data loss and
	// fails the job instead of resuming at the next live record.
	AssumeContiguousOffsets bool
}

// OffsetGapError is the job failure raised under the contiguity
// assumption.
type OffsetGapError struct {
	Topic    string
	Expected int64
	Got      int64
}

// Error implements the error interface.
func (e *OffsetGapError) Error() string {
	return fmt.Sprintf("flink: Kafka offsets are not contiguous on %s: expected %d, got %d (assumed lost data)",
		e.Topic, e.Expected, e.Got)
}

// KafkaSource consumes a partition record by record.
type KafkaSource struct {
	broker *kafkasim.Broker
	opts   KafkaSourceOptions
	next   int64
	read   []kafkasim.Record

	tracer   *obs.Tracer
	traceTop *obs.Span
}

// NewKafkaSource creates a source starting at offset 0.
func NewKafkaSource(broker *kafkasim.Broker, opts KafkaSourceOptions) *KafkaSource {
	return &KafkaSource{broker: broker, opts: opts}
}

// SetTrace attaches a tracer and default parent span; each Poll then
// emits a Flink data-plane span (failed on an offset-gap abort).
func (s *KafkaSource) SetTrace(tr *obs.Tracer, parent *obs.Span) {
	s.tracer = tr
	s.traceTop = parent
}

// Poll fetches up to max records, enforcing the contiguity assumption
// when configured. It returns the records fetched in this call.
func (s *KafkaSource) Poll(max int) ([]kafkasim.Record, error) {
	var sp *obs.Span
	if s.tracer != nil {
		sp = s.tracer.Span(s.traceTop, csi.Flink, csi.DataPlane, "kafka-source/poll").
			Set("topic", s.opts.Topic).
			Set("offset", strconv.FormatInt(s.next, 10))
	}
	recs, next, err := s.broker.Fetch(s.opts.Topic, s.opts.Partition, s.next, max)
	if err != nil {
		sp.Fail(err).End()
		return nil, err
	}
	expected := s.next
	for _, r := range recs {
		if s.opts.AssumeContiguousOffsets && r.Offset != expected {
			err := &OffsetGapError{Topic: s.opts.Topic, Expected: expected, Got: r.Offset}
			sp.Fail(err).End()
			return nil, err
		}
		expected = r.Offset + 1
		s.read = append(s.read, r)
	}
	s.next = next
	sp.End()
	return recs, nil
}

// Consumed returns every record read so far.
func (s *KafkaSource) Consumed() []kafkasim.Record { return s.read }

// --- FLINK-17189: Hive catalog type mapping ------------------------------

// FlinkType is the subset of Flink's logical types involved in the
// Hive catalog discrepancy.
type FlinkType string

// The relevant types.
const (
	TypeTimestamp FlinkType = "TIMESTAMP"
	TypeProctime  FlinkType = "PROCTIME" // a TIMESTAMP attribute, not a data type
)

// ToHiveType maps a Flink logical type to the Hive type the catalog
// stores. PROCTIME has no Hive representation and is stored as
// TIMESTAMP — losing the attribute.
//
//crossvet:unused-export FLINK-17189 row of the EXPERIMENTS.md §6 table, pinned by TestHiveCatalogProctimeMapping
func ToHiveType(t FlinkType) string {
	return "TIMESTAMP"
}

// FromHiveType maps a Hive catalog type back to the Flink type the
// schema declared. With the FLINK-17189 defect present the reverse
// mapping is missing: a PROCTIME column read back as TIMESTAMP fails
// schema validation.
//
//crossvet:unused-export FLINK-17189 row of the EXPERIMENTS.md §6 table, pinned by TestHiveCatalogProctimeMapping
func FromHiveType(hiveType string, declared FlinkType, fixed bool) (FlinkType, error) {
	if declared == TypeProctime {
		if !fixed {
			return "", fmt.Errorf("flink: catalog type TIMESTAMP cannot be mapped back to PROCTIME column (FLINK-17189)")
		}
		return TypeProctime, nil
	}
	return TypeTimestamp, nil
}
