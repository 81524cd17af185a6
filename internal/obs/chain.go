package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/csi"
)

// Hop is one system-level step of a cross-system propagation chain.
type Hop struct {
	System csi.System
	Plane  csi.Plane
	Name   string // the first span folded into the hop
	Spans  int    // spans folded into the hop
	Error  string // first error observed within the hop
}

// Failed reports whether any span folded into the hop recorded an
// error.
func (h Hop) Failed() bool { return h.Error != "" }

// Chain reconstructs the cross-system propagation chain of the
// subtree rooted at root, or of the whole trace when root is nil:
// spans are ordered causally (start time, then creation order) and
// consecutive spans of the same system fold into one hop. The result
// reads the way the paper narrates its incidents — which system an
// interaction entered, where it went next, and where it failed.
//
// A subtree chain costs in proportion to the subtree, not to the
// retained trace. If the tracer's cap evicted root itself, its
// surviving descendants still form the chain.
func (t *Tracer) Chain(root *Span) []Hop {
	if t == nil {
		return nil
	}
	spans := t.hopSpans(root)
	slices.SortStableFunc(spans, func(a, b hopSpan) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	var hops []Hop
	for _, s := range spans {
		if n := len(hops); n > 0 && hops[n-1].System == s.system {
			h := &hops[n-1]
			h.Spans++
			if h.Error == "" {
				h.Error = s.err
			}
			continue
		}
		hops = append(hops, Hop{System: s.system, Plane: s.plane, Name: s.name, Spans: 1, Error: s.err})
	}
	return hops
}

// hopSpan is the part of a span a Hop is folded from.
type hopSpan struct {
	id, start int64
	system    csi.System
	plane     csi.Plane
	name, err string
}

// hopSpans copies, under one lock, the spans of root's subtree (every
// retained span when root is nil) in creation order. A span's ID is
// above its parent's and at most its root's lastDesc, so window cuts
// the retained spans to that ID range, and one forward pass keeps the
// spans whose parent is root or an already collected span, which the
// ascending IDs of the collected prefix let a binary search answer.
func (t *Tracer) hopSpans(root *Span) []hopSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []hopSpan
	for _, s := range t.window(root) {
		if root != nil && s.ID != root.ID && s.ParentID != root.ID {
			if _, in := slices.BinarySearchFunc(out, s.ParentID, func(h hopSpan, id int64) int { return cmp.Compare(h.id, id) }); !in {
				continue
			}
		}
		out = append(out, hopSpan{id: s.ID, start: s.StartMs, system: s.System, plane: s.Plane, name: s.Name, err: s.Error})
	}
	return out
}

// window returns the retained spans whose IDs fall in root's subtree
// range [root.ID, root.lastDesc], or every retained span when root is
// nil. It must be called with t.mu held.
func (t *Tracer) window(root *Span) []*Span {
	if root == nil {
		return t.spans
	}
	byID := func(s *Span, id int64) int { return cmp.Compare(s.ID, id) }
	i, _ := slices.BinarySearchFunc(t.spans, root.ID, byID)
	j, _ := slices.BinarySearchFunc(t.spans, root.lastDesc+1, byID)
	return t.spans[i:j]
}

// maxRenderHops caps rendered chains: a request storm folds into long
// alternating System↔System tails that repeat without adding
// information.
const maxRenderHops = 12

// RenderChain renders hops as
//
//	Flink/request-containers → YARN/allocate(x12) → Flink ✗
//
// marking failed hops with ✗ and eliding the middle of very long
// chains.
func RenderChain(hops []Hop) string {
	labels := make([]string, 0, len(hops))
	for _, h := range hops {
		labels = append(labels, renderHop(h))
	}
	if len(labels) > maxRenderHops {
		elided := len(labels) - (maxRenderHops - 1)
		head := labels[:maxRenderHops-2]
		tail := labels[len(labels)-1]
		labels = append(append(head, fmt.Sprintf("⋯(+%d hops)", elided)), tail)
	}
	return strings.Join(labels, " → ")
}

func renderHop(h Hop) string {
	label := string(h.System)
	if h.Name != "" {
		label += "/" + h.Name
	}
	if h.Spans > 1 {
		label += fmt.Sprintf("(x%d)", h.Spans)
	}
	if h.Failed() {
		label += " ✗"
	}
	return label
}
