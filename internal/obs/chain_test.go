package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/csi"
)

func TestChainFoldsConsecutiveSystems(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.Span(nil, csi.Spark, csi.DataPlane, "dataframe/save")
	root.Child(csi.Hive, csi.DataPlane, "metastore/create-table").End()
	root.Child(csi.SerDe, csi.DataPlane, "avro/encode").End()
	w := root.Child(csi.HDFS, csi.DataPlane, "warehouse/write")
	w.End()
	root.Child(csi.HDFS, csi.DataPlane, "warehouse/write").End() // second part file folds
	read := tr.Span(nil, csi.Hive, csi.DataPlane, "hiveql/select")
	read.Child(csi.SerDe, csi.DataPlane, "avro/decode").Fail(fmt.Errorf("cannot decode")).End()
	read.End()
	root.End()

	hops := tr.Chain(nil)
	var systems []string
	for _, h := range hops {
		systems = append(systems, string(h.System))
	}
	want := []string{"Spark", "Hive", "SerDe", "HDFS", "Hive", "SerDe"}
	if strings.Join(systems, ",") != strings.Join(want, ",") {
		t.Fatalf("chain systems = %v, want %v", systems, want)
	}
	if hops[3].Spans != 2 {
		t.Errorf("HDFS hop folded %d spans, want 2", hops[3].Spans)
	}
	last := hops[len(hops)-1]
	if !last.Failed() || last.Error != "cannot decode" {
		t.Errorf("failing hop = %+v", last)
	}
	rendered := RenderChain(hops)
	if !strings.Contains(rendered, "Spark/dataframe/save → Hive/metastore/create-table") {
		t.Errorf("render = %q", rendered)
	}
	if !strings.Contains(rendered, "HDFS/warehouse/write(x2)") {
		t.Errorf("render lost fold count: %q", rendered)
	}
	if !strings.HasSuffix(rendered, "✗") {
		t.Errorf("render does not mark failure: %q", rendered)
	}
}

func TestChainSubtreeIsolatesCases(t *testing.T) {
	tr := NewTracer(nil)
	// Two interleaved cases, as under a parallel harness run.
	a := tr.Span(nil, csi.Spark, csi.DataPlane, "case-a")
	b := tr.Span(nil, csi.Hive, csi.DataPlane, "case-b")
	a.Child(csi.HDFS, csi.DataPlane, "write").End()
	b.Child(csi.Kafka, csi.DataPlane, "produce").End()
	a.End()
	b.End()
	hopsA := tr.Chain(a)
	if len(hopsA) != 2 || hopsA[0].System != csi.Spark || hopsA[1].System != csi.HDFS {
		t.Errorf("subtree chain A = %+v", hopsA)
	}
	hopsB := tr.Chain(b)
	if len(hopsB) != 2 || hopsB[0].System != csi.Hive || hopsB[1].System != csi.Kafka {
		t.Errorf("subtree chain B = %+v", hopsB)
	}
}

// referenceChain is the straightforward reconstruction Chain must
// match: copy the whole retained trace, keep root's subtree through an
// ID set, stable-sort by (start, ID) and fold.
func referenceChain(t *Tracer, root *Span) []Hop {
	spans := t.Snapshot()
	if root != nil {
		spans = referenceSubtree(spans, root.ID)
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartMs != spans[j].StartMs {
			return spans[i].StartMs < spans[j].StartMs
		}
		return spans[i].ID < spans[j].ID
	})
	var hops []Hop
	for _, s := range spans {
		if n := len(hops); n > 0 && hops[n-1].System == s.System {
			h := &hops[n-1]
			h.Spans++
			if h.Error == "" {
				h.Error = s.Error
			}
			continue
		}
		hops = append(hops, Hop{System: s.System, Plane: s.Plane, Name: s.Name, Spans: 1, Error: s.Error})
	}
	return hops
}

func referenceSubtree(spans []Span, rootID int64) []Span {
	in := map[int64]bool{rootID: true}
	var out []Span
	for _, s := range spans {
		if in[s.ID] || in[s.ParentID] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// traceStats counts the situations a generated trace exercised.
type traceStats struct{ evictedRoots, ties, rewinds int }

// genTrace builds a seeded random trace: roots interleave with
// children of random earlier spans (evicted ones included), time
// often stands still (start ties), the clock is sometimes swapped for
// an earlier one, and the span cap is sometimes lowered so evictions
// drop whole roots. It returns every span ever created.
func genTrace(seed int64, st *traceStats) (*Tracer, []*Span) {
	rng := rand.New(rand.NewSource(seed))
	systems := []csi.System{csi.Spark, csi.Hive, csi.HDFS, csi.SerDe, csi.Kafka}
	planes := []csi.Plane{csi.ControlPlane, csi.DataPlane, csi.ManagementPlane}
	var clk *fakeClock
	tr := NewTracer(nil) // step time until the first SetClock
	var all []*Span
	for i, n := 0, 20+rng.Intn(300); i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 3:
			tr.SetCap(4 + rng.Intn(60))
		case r < 8:
			back := int64(1 + rng.Intn(40))
			if clk != nil {
				back = clk.t - back
			}
			clk = &fakeClock{t: back}
			tr.SetClock(clk)
			st.rewinds++
		}
		if clk != nil {
			clk.t += int64(rng.Intn(3)) // 0: same start as the previous span
		}
		var parent *Span
		if len(all) > 0 && rng.Intn(4) > 0 {
			parent = all[rng.Intn(len(all))]
		}
		s := tr.Span(parent, systems[rng.Intn(len(systems))], planes[rng.Intn(len(planes))], fmt.Sprintf("op%d", rng.Intn(3)))
		if rng.Intn(5) == 0 {
			s.Fail(fmt.Errorf("err%d", i))
		}
		if rng.Intn(3) == 0 {
			s.Set("k", fmt.Sprint(i))
		}
		all = append(all, s)
		if e := all[rng.Intn(len(all))]; rng.Intn(2) == 0 {
			e.End()
		}
	}
	snap := tr.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].StartMs == snap[i-1].StartMs {
			st.ties++
		}
	}
	if len(snap) > 0 {
		for _, s := range all {
			if s.ID < snap[0].ID && len(referenceChain(tr, s)) > 0 {
				st.evictedRoots++
			}
		}
	}
	return tr, all
}

// TestChainMatchesReference holds Chain to the reference
// reconstruction over seeded random traces, for the whole trace and
// for the subtree of every span ever created, evicted or not.
func TestChainMatchesReference(t *testing.T) {
	var st traceStats
	for seed := int64(1); seed <= 200; seed++ {
		tr, all := genTrace(seed, &st)
		if got, want := tr.Chain(nil), referenceChain(tr, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Chain(nil) = %+v, want %+v", seed, got, want)
		}
		for _, s := range all {
			if got, want := tr.Chain(s), referenceChain(tr, s); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Chain(span %d) = %+v, want %+v", seed, s.ID, got, want)
			}
		}
	}
	if st.evictedRoots == 0 || st.ties == 0 || st.rewinds == 0 {
		t.Errorf("generated traces miss a case: %+v", st)
	}
}

// TestChainAllocsIndependentOfRetainedSpans pins the cost of a subtree
// chain to the subtree: a 10-span case allocates the same whether the
// tracer also retains 64 or 4096 unrelated spans, before and after it.
func TestChainAllocsIndependentOfRetainedSpans(t *testing.T) {
	systems := []csi.System{csi.Spark, csi.Hive, csi.SerDe, csi.HDFS}
	measure := func(unrelated int) float64 {
		tr := NewTracer(nil)
		noise := func(n int) {
			for i := 0; i < n; i++ {
				tr.Span(nil, csi.Kafka, csi.DataPlane, "other-case").Set("input", "x").End()
			}
		}
		noise(unrelated / 2)
		root := tr.Span(nil, csi.Spark, csi.DataPlane, "case")
		parent := root
		for i := 1; i < 10; i++ {
			sp := parent.Child(systems[i%len(systems)], csi.DataPlane, "step")
			sp.End()
			if i%3 == 0 {
				parent = sp
			}
			noise(unrelated / 2 / 9)
		}
		noise(unrelated - unrelated/2 - 9*(unrelated/2/9))
		root.End()
		if tr.Len() != unrelated+10 {
			t.Fatalf("tracer retains %d spans, want %d", tr.Len(), unrelated+10)
		}
		hops := tr.Chain(root)
		total := 0
		for _, h := range hops {
			total += h.Spans
		}
		if total != 10 {
			t.Fatalf("chain folds %d spans, want the 10 of the case", total)
		}
		return testing.AllocsPerRun(50, func() { tr.Chain(root) })
	}
	if small, large := measure(64), measure(4096); small != large {
		t.Errorf("Chain allocs = %v with 64 unrelated spans, %v with 4096", small, large)
	}
}

func TestRenderChainElidesLongTails(t *testing.T) {
	tr := NewTracer(nil)
	for i := 0; i < 40; i++ {
		tr.Span(nil, csi.Flink, csi.ControlPlane, "request").End()
		tr.Span(nil, csi.YARN, csi.ControlPlane, "allocate").End()
	}
	hops := tr.Chain(nil)
	if len(hops) != 80 {
		t.Fatalf("hops = %d", len(hops))
	}
	rendered := RenderChain(hops)
	if n := strings.Count(rendered, "→"); n > maxRenderHops {
		t.Errorf("rendered %d arrows: %q", n, rendered)
	}
	if !strings.Contains(rendered, "hops)") {
		t.Errorf("no elision marker: %q", rendered)
	}
}
