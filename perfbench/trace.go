package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/csi"
	"repro/internal/obs"
)

// systemBench tags the spans the benchmark records around its own calls
// into the program; the engines' spans hang beneath them.
const systemBench csi.System = "bench"

// nsClock feeds obs tracers nanoseconds since the clock was made, so
// span StartMs/EndMs hold nanoseconds (the engines' own clock is only
// millisecond-grained, too coarse for calls of a few microseconds).
type nsClock struct{ t0 time.Time }

func (c nsClock) Now() int64 { return int64(time.Since(c.t0)) }

// spanLog keeps every tracer of a traced run, in creation order, so the
// spans can be written out when the benchmark ends.
type spanLog struct {
	t0 time.Time

	mu    sync.Mutex
	parts []spanPart
}

type spanPart struct {
	workload, phase string
	tr              *obs.Tracer
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// tracer returns a nanosecond tracer for one phase of a workload's
// traced run. Its spans are kept for the span file only when the run
// writes one.
func (c *config) tracer(workload, phase string) *obs.Tracer {
	if c.spans == nil {
		return obs.NewTracer(nsClock{time.Now()})
	}
	tr := obs.NewTracer(nsClock{c.spans.t0})
	c.spans.mu.Lock()
	c.spans.parts = append(c.spans.parts, spanPart{workload: workload, phase: phase, tr: tr})
	c.spans.mu.Unlock()
	return tr
}

// spanLine is one line of the span file. Span IDs are unique within a
// (workload, phase) pair.
type spanLine struct {
	Workload string     `json:"workload"`
	Phase    string     `json:"phase"`
	ID       int64      `json:"id"`
	Parent   int64      `json:"parent,omitempty"`
	System   csi.System `json:"system"`
	Name     string     `json:"name"`
	StartNs  int64      `json:"start_ns"`
	EndNs    int64      `json:"end_ns"`
	Error    string     `json:"error,omitempty"`
	Attrs    []obs.Attr `json:"attrs,omitempty"`
}

// write stores every kept span as JSON lines.
func (l *spanLog) write(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, p := range l.parts {
		for _, s := range p.tr.Snapshot() {
			line := spanLine{
				Workload: p.workload, Phase: p.phase, ID: s.ID, Parent: s.ParentID, System: s.System,
				Name: s.Name, StartNs: s.StartMs, EndNs: s.EndMs, Error: s.Error, Attrs: s.Attrs,
			}
			if err := enc.Encode(line); err != nil {
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}

// spanAgg is the per-name tally of a span tree: calls, errors and self
// time (a span's duration minus its children's).
type spanAgg struct {
	calls  map[string]int
	errors map[string]int
	self   map[string]time.Duration
}

func newSpanAgg() spanAgg {
	return spanAgg{calls: map[string]int{}, errors: map[string]int{}, self: map[string]time.Duration{}}
}

func aggregate(spans []obs.Span) spanAgg {
	a := newSpanAgg()
	child := map[int64]time.Duration{}
	for _, s := range spans {
		if s.ParentID != 0 && s.EndMs >= 0 {
			child[s.ParentID] += time.Duration(s.EndMs - s.StartMs)
		}
	}
	for _, s := range spans {
		if s.EndMs < 0 {
			continue
		}
		d := time.Duration(s.EndMs - s.StartMs)
		a.calls[s.Name]++
		a.self[s.Name] += d - child[s.ID]
		if s.Error != "" {
			a.errors[s.Name]++
		}
	}
	return a
}

// merge folds another tally into a.
func (a spanAgg) merge(b spanAgg) {
	for k, v := range b.calls {
		a.calls[k] += v
	}
	for k, v := range b.errors {
		a.errors[k] += v
	}
	for k, v := range b.self {
		a.self[k] += v
	}
}

// selfUs is the mean self time of the named span in microseconds.
func (a spanAgg) selfUs(name string) float64 {
	return ratio(float64(a.self[name])/float64(time.Microsecond), float64(a.calls[name]))
}

// opSpan opens a benchmark span around one call into the program; a nil
// tracer gives a nil (no-op) span.
func opSpan(tr *obs.Tracer, parent *obs.Span, name string, sample int) *obs.Span {
	sp := tr.Span(parent, systemBench, csi.ControlPlane, name)
	if sample >= 0 {
		sp.Set("sample", fmt.Sprint(sample))
	}
	return sp
}
