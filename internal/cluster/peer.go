package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/cluster/chash"
)

// Peers is the distributed cache tier: a serve.PeerCache backed by the
// consistent-hash ring and the nodes' /api/v1/cache endpoints. Fetch
// probes the key's preference list (owner first, then ring successors
// — after a membership change the previous owner is in the new owner's
// successor set, which is what makes a resharded resubmission free);
// Offer writes a locally computed result through to the key's owner.
//
// Construct with NewPeers, then Connect once the node URLs are known —
// an unconnected tier misses every fetch and drops every offer, so the
// scheduler it is plugged into degrades to plain local execution.
type Peers struct {
	self string

	mu      sync.RWMutex
	ring    *chash.Ring
	clients map[string]*NodeClient
}

const (
	// probeTimeout bounds each peer probe and write-through offer.
	probeTimeout = 5 * time.Second
	// fetchLimit caps how many peers one Fetch tries: the owner plus
	// two successors — enough to survive a membership change plus one
	// dead node.
	fetchLimit = 3
)

// NewPeers builds an unconnected tier for the named node.
func NewPeers(self string) *Peers { return &Peers{self: self} }

// Connect installs the membership view: the ring over the node names
// and a client per node. Safe to call again on membership changes.
func (p *Peers) Connect(ring *chash.Ring, clients map[string]*NodeClient) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ring = ring
	p.clients = clients
}

func (p *Peers) view() (*chash.Ring, map[string]*NodeClient) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.ring, p.clients
}

// Fetch probes the key's peer owners for a finished result.
func (p *Peers) Fetch(ctx context.Context, key string) ([]byte, bool) {
	ring, clients := p.view()
	if ring == nil {
		return nil, false
	}
	probed := 0
	for _, node := range ring.Preference(key) {
		if probed >= fetchLimit {
			break
		}
		if node == p.self {
			continue // the local cache already missed
		}
		c := clients[node]
		if c == nil {
			continue
		}
		probed++
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		data, ok := c.CacheGet(pctx, key)
		cancel()
		if ok {
			return data, true
		}
	}
	return nil, false
}

// Offer writes a locally computed result through to the key's ring
// owner, so later fetches find it where the preference list starts.
// Best-effort: a dead owner just means the result stays local.
func (p *Peers) Offer(key string, data []byte) {
	ring, clients := p.view()
	if ring == nil {
		return
	}
	owner := ring.Owner(key)
	if owner == "" || owner == p.self {
		return // the local Cache.Put already stored it
	}
	c := clients[owner]
	if c == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	c.CachePut(ctx, key, data)
}
