package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// MetricsHandler serves the cluster-wide metrics view: every worker's
// /metrics exposition plus the coordinator's own registry, parsed and
// summed series-by-series, with a per-node liveness marker. Mount it as
// serve.ServerOptions.Cluster on the coordinator node.
type MetricsHandler struct {
	// Nodes are the workers to scrape.
	Nodes map[string]*NodeClient
	// Self, when non-nil, contributes the coordinator's own registry
	// (fan-out counters, stage histograms) under SelfName.
	Self     *obs.Registry
	SelfName string
}

// scrapeTimeout bounds each node scrape.
const scrapeTimeout = 5 * time.Second

func (h *MetricsHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sums := map[string]float64{}
	up := map[string]bool{}

	names := make([]string, 0, len(h.Nodes))
	for name := range h.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ctx, cancel := context.WithTimeout(r.Context(), scrapeTimeout)
		text, err := h.Nodes[name].MetricsText(ctx)
		cancel()
		if err != nil {
			up[name] = false
			continue
		}
		up[name] = true
		series, err := obs.ParsePrometheus(strings.NewReader(text))
		if err != nil {
			continue // a malformed exposition counts as up but contributes nothing
		}
		for k, v := range series {
			sums[k] += v
		}
	}
	if h.Self != nil {
		var b strings.Builder
		h.Self.WritePrometheus(&b)
		if series, err := obs.ParsePrometheus(strings.NewReader(b.String())); err == nil {
			for k, v := range series {
				sums[k] += v
			}
		}
		selfName := h.SelfName
		if selfName == "" {
			selfName = "coordinator"
		}
		up[selfName] = true
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %v\n", k, sums[k])
	}
	nodes := make([]string, 0, len(up))
	for n := range up {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		v := 0
		if up[n] {
			v = 1
		}
		fmt.Fprintf(w, "crossd_node_up{node=%q} %d\n", n, v)
	}
}
