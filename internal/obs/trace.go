// Package obs is the zero-dependency observability layer of the
// reproduction: causal span tracing across cross-system boundaries,
// counters/gauges/fixed-bucket histograms with Prometheus-text and
// JSON exporters, and the propagation-chain reconstruction that
// renders how a failure cascaded across systems — the way the paper's
// Figure 1–3 narratives do by hand.
//
// The paper's diagnosis problem is that each system's logs are siloed,
// so cross-system interaction failures "fall through the cracks".
// Spans here are tagged with the system and interaction plane from
// internal/csi, so one trace spans every boundary a request crossed.
//
// Everything is nil-safe: a nil *Tracer or *Registry (and the nil
// spans and metrics they hand out) turns every call into a no-op, so
// instrumented code paths stay allocation-free when observability is
// disabled.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/csi"
)

// Clock is the tracer's time source in milliseconds. *vclock.Sim
// satisfies it; a nil clock falls back to a monotonic step counter
// that still preserves causal order.
type Clock interface{ Now() int64 }

// WallClock is a Clock over real time, for long-running services
// (crossd) whose spans should carry wall-clock milliseconds rather
// than virtual or step time.
type WallClock struct{}

// Now returns the current wall time in Unix milliseconds.
func (WallClock) Now() int64 { return time.Now().UnixMilli() }

// Tracer records spans. It is safe for concurrent use: span creation
// and mutation synchronize on the tracer's lock.
type Tracer struct {
	mu    sync.Mutex
	clock Clock
	ticks int64
	seq   int64
	cap   int // 0 = unbounded
	spans []*Span
}

// NewTracer creates a tracer on the given clock (nil for step time).
func NewTracer(clock Clock) *Tracer { return &Tracer{clock: clock} }

// SetClock replaces the time source — typically once a scenario's
// virtual clock exists.
func (t *Tracer) SetClock(c Clock) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = c
	t.mu.Unlock()
}

// SetCap bounds the number of retained spans (0 = unbounded, the
// default). When the cap is reached, the oldest half of the retained
// spans is dropped, so a long-running service traces forever in
// bounded memory — like the flight recorder, recent history wins.
// Chains reconstructed for dropped spans come back partial or empty.
func (t *Tracer) SetCap(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cap = n
	t.mu.Unlock()
}

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Well-known attribute keys. Version-skew runs label every case span
// with the writer and reader stack versions, so a propagation chain
// read off a trace identifies which deployment generation each hop ran
// under — the context §5's upgrade-triggered failures lack in siloed
// per-system logs.
const (
	// AttrWriterStack is the writer deployment's "spark/hive" version pair.
	AttrWriterStack = "writer.versions"
	// AttrReaderStack is the reader deployment's "spark/hive" version pair.
	AttrReaderStack = "reader.versions"
	// AttrProbeFrom names the writer->reader pair of the skew-matrix
	// cell whose case ran this case's reader-stack control probe: the
	// "_rw" spans live under that cell's case span, not this one.
	AttrProbeFrom = "probe.from"
)

// Span is one traced operation at (or inside) a cross-system boundary.
// Fields are written under the tracer's lock; read them from Snapshot
// copies when other goroutines may still be emitting.
type Span struct {
	tr       *Tracer
	ID       int64
	ParentID int64 // 0 for root spans
	System   csi.System
	Plane    csi.Plane
	Name     string
	StartMs  int64
	EndMs    int64 // -1 while open
	Error    string
	Attrs    []Attr

	// parent lets span creation raise lastDesc on every ancestor, so
	// Chain can stop at a subtree's end. It keeps the ancestors of a
	// retained span alive after the cap drops them: at most one
	// ancestor path per retained span.
	parent   *Span
	lastDesc int64 // highest ID in the subtree rooted here
}

// now must be called with t.mu held.
func (t *Tracer) now() int64 {
	if t.clock != nil {
		return t.clock.Now()
	}
	t.ticks++
	return t.ticks
}

// Span starts a span under parent (nil for a root span).
func (t *Tracer) Span(parent *Span, system csi.System, plane csi.Plane, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	s := &Span{tr: t, ID: t.seq, System: system, Plane: plane, Name: name, StartMs: t.now(), EndMs: -1, parent: parent, lastDesc: t.seq}
	if parent != nil {
		s.ParentID = parent.ID
	}
	for p := parent; p != nil; p = p.parent {
		p.lastDesc = s.ID
	}
	if t.cap > 0 && len(t.spans) >= t.cap {
		// Copy into a fresh slice so the dropped half is released.
		t.spans = append(t.spans[:0:0], t.spans[len(t.spans)/2:]...)
	}
	t.spans = append(t.spans, s)
	return s
}

// TraceID returns a stable hex identifier for the span, usable as a
// histogram exemplar trace ID that joins back to the span chain; empty
// for nil spans.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%08x", s.ID)
}

// Child starts a span under s.
func (s *Span) Child(system csi.System, plane csi.Plane, name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.Span(s, system, plane, name)
}

// Set attaches an attribute, returning s for chaining.
func (s *Span) Set(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
	return s
}

// Fail records the error on the span; a nil error is a no-op.
func (s *Span) Fail(err error) *Span {
	if s == nil || err == nil {
		return s
	}
	s.tr.mu.Lock()
	s.Error = err.Error()
	s.tr.mu.Unlock()
	return s
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.EndMs < 0 {
		s.EndMs = s.tr.now()
	}
	s.tr.mu.Unlock()
}

// Len returns the number of spans recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Snapshot returns value copies of every span in creation order.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	for i, s := range t.spans {
		out[i] = *s
		out[i].Attrs = append([]Attr(nil), s.Attrs...)
	}
	return out
}

// spanJSON is the export shape of one span.
type spanJSON struct {
	ID     int64      `json:"id"`
	Parent int64      `json:"parent,omitempty"`
	System csi.System `json:"system"`
	Plane  string     `json:"plane"`
	Name   string     `json:"name"`
	Start  int64      `json:"start_ms"`
	End    int64      `json:"end_ms"`
	Error  string     `json:"error,omitempty"`
	Attrs  []Attr     `json:"attrs,omitempty"`
}

// WriteSpans writes the trace as JSON lines, one span per line, in
// creation order.
func (t *Tracer) WriteSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Snapshot() {
		row := spanJSON{
			ID: s.ID, Parent: s.ParentID, System: s.System, Plane: s.Plane.String(),
			Name: s.Name, Start: s.StartMs, End: s.EndMs, Error: s.Error, Attrs: s.Attrs,
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}
