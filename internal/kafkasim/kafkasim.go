// Package kafkasim simulates a Kafka-like partitioned log with the two
// properties behind the streaming-plane CSI failures in the study:
//
//   - offsets are monotonically increasing but NOT contiguous: log
//     compaction removes superseded records and transaction markers
//     consume offsets invisibly, so consumers that assume "offsets
//     always increment by 1" (SPARK-19361) mis-handle the gaps;
//   - partition metadata is only served to clients connected to the
//     cluster, so partition discovery invoked in the wrong context
//     fails (FLINK-4155).
//
// The broker is safe for concurrent use.
package kafkasim

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/csi"
	"repro/internal/obs"
)

// Record is one log entry as seen by consumers.
type Record struct {
	Offset int64
	Key    string
	Value  []byte
}

type entry struct {
	offset  int64
	key     string
	value   []byte
	deleted bool // compacted away or a transaction marker
	marker  bool
}

type partition struct {
	entries    []entry
	nextOffset int64
}

// ErrUnknownTopic reports a fetch from a topic that does not exist.
var ErrUnknownTopic = fmt.Errorf("kafka: unknown topic or partition")

// ErrOffsetOutOfRange reports a fetch beyond the log end or before the
// log start.
var ErrOffsetOutOfRange = fmt.Errorf("kafka: offset out of range")

// ErrNotConnected reports a metadata call from a client context that
// has no route to the cluster (the FLINK-4155 model).
var ErrNotConnected = fmt.Errorf("kafka: partition discovery requires a connected cluster context")

// Broker is the simulated cluster (or, for the partition fault plane,
// one broker node's local log and metadata — see isr.go).
type Broker struct {
	mu       sync.Mutex
	topics   map[string][]*partition
	replMeta map[string]*replState // "topic/part" -> replication metadata
	tracer   *obs.Tracer
	traceTop *obs.Span
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{topics: make(map[string][]*partition)}
}

// SetTrace attaches a tracer and default parent span; the broker then
// emits spans for produce/fetch (data plane) and compaction
// (management plane). A nil tracer disables emission.
func (b *Broker) SetTrace(tr *obs.Tracer, parent *obs.Span) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tracer = tr
	b.traceTop = parent
}

// span emits a completed boundary span; call with b.mu held.
func (b *Broker) span(plane csi.Plane, name, topic string, err error) *obs.Span {
	if b.tracer == nil {
		return nil
	}
	sp := b.tracer.Span(b.traceTop, csi.Kafka, plane, name)
	if topic != "" {
		sp.Set("topic", topic)
	}
	sp.Fail(err)
	sp.End()
	return sp
}

// CreateTopic registers a topic with the given partition count.
func (b *Broker) CreateTopic(topic string, partitions int) error {
	if partitions <= 0 {
		return fmt.Errorf("kafka: topic %q needs at least one partition", topic)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.topics[topic]; ok {
		return fmt.Errorf("kafka: topic %q already exists", topic)
	}
	parts := make([]*partition, partitions)
	for i := range parts {
		parts[i] = &partition{}
	}
	b.topics[topic] = parts
	return nil
}

func (b *Broker) partition(topic string, part int) (*partition, error) {
	parts, ok := b.topics[topic]
	if !ok || part < 0 || part >= len(parts) {
		return nil, fmt.Errorf("%w: %s/%d", ErrUnknownTopic, topic, part)
	}
	return parts[part], nil
}

// Produce appends a keyed record, returning its offset.
func (b *Broker) Produce(topic string, part int, key string, value []byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, err := b.partition(topic, part)
	if err != nil {
		b.span(csi.DataPlane, "produce", topic, err)
		return 0, err
	}
	off := p.nextOffset
	p.nextOffset++
	p.entries = append(p.entries, entry{offset: off, key: key, value: append([]byte(nil), value...)})
	if b.tracer != nil {
		b.span(csi.DataPlane, "produce", topic, nil).Set("offset", strconv.FormatInt(off, 10))
	}
	return off, nil
}

// AppendTxnMarker consumes one offset for a transaction control record
// that is never delivered to consumers — one source of offset gaps.
func (b *Broker) AppendTxnMarker(topic string, part int) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, err := b.partition(topic, part)
	if err != nil {
		return 0, err
	}
	off := p.nextOffset
	p.nextOffset++
	p.entries = append(p.entries, entry{offset: off, deleted: true, marker: true})
	return off, nil
}

// Compact removes every record whose key has a later record, leaving
// offset gaps — the second source of non-contiguous offsets. It
// returns the number of records removed.
func (b *Broker) Compact(topic string, part int) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, err := b.partition(topic, part)
	if err != nil {
		return 0, err
	}
	latest := make(map[string]int64)
	for _, e := range p.entries {
		if !e.deleted && e.key != "" {
			latest[e.key] = e.offset
		}
	}
	removed := 0
	for i := range p.entries {
		e := &p.entries[i]
		if e.deleted || e.key == "" {
			continue
		}
		if latest[e.key] != e.offset {
			e.deleted = true
			removed++
		}
	}
	if b.tracer != nil {
		b.span(csi.ManagementPlane, "compact", topic, nil).Set("removed", strconv.Itoa(removed))
	}
	return removed, nil
}

// Fetch returns up to max live records starting at or after offset,
// along with the offset to resume from. Offsets inside gaps are legal
// start positions; offsets beyond the log end are out of range.
func (b *Broker) Fetch(topic string, part int, offset int64, max int) ([]Record, int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, err := b.partition(topic, part)
	if err != nil {
		b.span(csi.DataPlane, "fetch", topic, err)
		return nil, 0, err
	}
	if offset < 0 || offset > p.nextOffset {
		err := fmt.Errorf("%w: %d not in [0, %d]", ErrOffsetOutOfRange, offset, p.nextOffset)
		b.span(csi.DataPlane, "fetch", topic, err)
		return nil, 0, err
	}
	var out []Record
	next := offset
	for _, e := range p.entries {
		if e.offset < offset || e.deleted {
			continue
		}
		if len(out) >= max {
			break
		}
		out = append(out, Record{Offset: e.offset, Key: e.key, Value: append([]byte(nil), e.value...)})
		next = e.offset + 1
	}
	if len(out) == 0 {
		next = p.nextOffset
	}
	if b.tracer != nil {
		b.span(csi.DataPlane, "fetch", topic, nil).Set("records", strconv.Itoa(len(out)))
	}
	return out, next, nil
}

// HasRecordAt reports whether a live (non-compacted, non-marker)
// record exists at exactly the given offset.
func (b *Broker) HasRecordAt(topic string, part int, offset int64) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, err := b.partition(topic, part)
	if err != nil {
		return false, err
	}
	for _, e := range p.entries {
		if e.offset == offset {
			return !e.deleted, nil
		}
	}
	return false, nil
}

// EndOffset returns the next offset that will be assigned.
func (b *Broker) EndOffset(topic string, part int) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, err := b.partition(topic, part)
	if err != nil {
		return 0, err
	}
	return p.nextOffset, nil
}

// Client is a consumer-side handle. Connected distinguishes a runtime
// context with cluster access from a driver/client context without one
// (FLINK-4155).
type Client struct {
	broker    *Broker
	Connected bool
}

// NewClient returns a handle to the broker.
//
//crossvet:unused-export FLINK-4155 row of the EXPERIMENTS.md §6 table, pinned by TestClientPartitionDiscoveryContext
func NewClient(broker *Broker, connected bool) *Client {
	return &Client{broker: broker, Connected: connected}
}

// DiscoverPartitions returns the partition count for a topic. In a
// disconnected context the metadata request cannot be served.
func (c *Client) DiscoverPartitions(topic string) (int, error) {
	if !c.Connected {
		return 0, ErrNotConnected
	}
	c.broker.mu.Lock()
	defer c.broker.mu.Unlock()
	parts, ok := c.broker.topics[topic]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTopic, topic)
	}
	return len(parts), nil
}
