package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBucketsMs are the default latency histogram bucket upper bounds,
// in milliseconds.
var DefBucketsMs = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}

// Counter is a monotonically increasing metric.
type Counter struct{ v int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is a metric that can go up and down.
type Gauge struct{ bits uint64 }

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// Histogram is a fixed-bucket histogram. Buckets are upper bounds,
// inclusive (Prometheus `le` semantics); observations above the last
// bound land in the implicit +Inf bucket. Each bucket can additionally
// carry one exemplar — a trace ID attached to a recent observation —
// so a tail-latency bucket links directly to the causal span chain
// that produced it.
type Histogram struct {
	mu        sync.Mutex
	bounds    []float64
	counts    []int64    // len(bounds)+1; last is +Inf
	exemplars []Exemplar // lazily allocated, parallel to counts; zero TraceID = none
	sum       float64
	count     int64
}

// Exemplar is one trace-linked observation retained for a bucket: the
// last exemplar-carrying observation that landed in it wins.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// ObserveExemplar records one observation and, when traceID is
// non-empty, stores it as the landing bucket's exemplar (replacing any
// previous one). The exemplar slice is allocated on first use, so
// exemplar-free histograms pay nothing.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, since le is inclusive
	h.counts[i]++
	h.sum += v
	h.count++
	if traceID != "" {
		if h.exemplars == nil {
			h.exemplars = make([]Exemplar, len(h.bounds)+1)
		}
		h.exemplars[i] = Exemplar{TraceID: traceID, Value: v}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns bounds, per-bucket (non-cumulative) counts, and
// per-bucket exemplars (nil when none were ever recorded).
func (h *Histogram) snapshot() (bounds []float64, counts []int64, exemplars []Exemplar, sum float64, count int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.bounds...),
		append([]int64(nil), h.counts...),
		append([]Exemplar(nil), h.exemplars...),
		h.sum, h.count
}

// Registry holds named metric families, each with labelled series.
// A nil *Registry (and the nil metrics it returns) is a no-op, so
// instrumented code needs no enabled/disabled branches.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	kind    string // "counter", "gauge", "histogram"
	buckets []float64
	series  map[string]any // label signature -> *Counter | *Gauge | *Histogram
	labels  map[string][]Attr
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

// Counter returns (creating if needed) the counter series for name and
// label pairs ("key", "value", ...).
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup("counter", name, nil, labels).(*Counter)
}

// Gauge returns (creating if needed) the gauge series.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup("gauge", name, nil, labels).(*Gauge)
}

// Histogram returns (creating if needed) the histogram series. The
// bucket bounds are fixed by the family's first registration; nil
// falls back to DefBucketsMs.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup("histogram", name, buckets, labels).(*Histogram)
}

func (r *Registry) lookup(kind, name string, buckets []float64, labels []string) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		if kind == "histogram" {
			if len(buckets) == 0 {
				buckets = DefBucketsMs
			}
			buckets = append([]float64(nil), buckets...)
			sort.Float64s(buckets)
		}
		fam = &family{kind: kind, buckets: buckets, series: map[string]any{}, labels: map[string][]Attr{}}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, fam.kind, kind))
	}
	// The pairs sort into a stack array and the key renders into a stack
	// buffer, so a repeat lookup allocates nothing; a new series copies
	// both.
	var pairs [4]Attr
	attrs := pairs[:0]
	for i := 0; i+1 < len(labels); i += 2 { // a trailing unpaired key is ignored
		attrs = append(attrs, Attr{Key: labels[i], Value: labels[i+1]})
	}
	slices.SortStableFunc(attrs, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
	var buf [128]byte
	kb := appendLabelKey(buf[:0], attrs)
	s, ok := fam.series[string(kb)]
	if !ok {
		key := string(kb)
		switch kind {
		case "counter":
			s = &Counter{}
		case "gauge":
			s = &Gauge{}
		case "histogram":
			s = &Histogram{bounds: fam.buckets, counts: make([]int64, len(fam.buckets)+1)}
		}
		fam.series[key] = s
		fam.labels[key] = slices.Clone(attrs)
	}
	return s
}

// labelKey renders attributes in the Prometheus label-set syntax, used
// both as the series key and in the text exposition.
func labelKey(attrs []Attr) string { return string(appendLabelKey(nil, attrs)) }

// appendLabelKey appends labelKey's rendering: {k="v",...}, each value
// quoted as %q quotes it, and nothing for no attributes.
func appendLabelKey(dst []byte, attrs []Attr) []byte {
	for i, a := range attrs {
		if i == 0 {
			dst = append(dst, '{')
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, a.Key...)
		dst = append(dst, '=')
		dst = strconv.AppendQuote(dst, a.Value)
	}
	if len(attrs) > 0 {
		dst = append(dst, '}')
	}
	return dst
}
