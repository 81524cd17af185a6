package hdfssim

// NameNode-side lease and replica-set bookkeeping: the shared state the
// partition fault plane observes. Two of CoFI's HDFS findings live
// exactly here:
//
//   - HDFS-15235: a client's lease expires during a GC pause; if the
//     NameNode's reassignment is not visible to every DataNode, writes
//     from the old and new holder race on stale pipeline state;
//   - HDFS-15367: the NameNode's replica locations go stale when a
//     DataNode's block report is partitioned away, leaving metadata
//     that points at replicas no DataNode holds.
//
// Leases expire lazily against the virtual clock — there is no
// background sweeper, so expiry is a pure function of (state, Now) and
// replays deterministically.

import (
	"fmt"
	"sort"
)

// Lease error classes.
var (
	// ErrLeaseHeld reports an acquisition attempt while another holder's
	// lease is still unexpired.
	ErrLeaseHeld = fmt.Errorf("hdfs: file is already leased to another client")
	// ErrLeaseLost reports a renewal or release by a client that no
	// longer holds the lease (it expired, or was reassigned).
	ErrLeaseLost = fmt.Errorf("hdfs: client no longer holds the lease")
)

// DefaultLeaseTTLMs is the default lease soft limit.
const DefaultLeaseTTLMs = 60_000

// leaseState is the NameNode's record of a file's write lease. gen is
// the pipeline generation stamp: it increments every time the lease
// changes holder, so a DataNode can tell a stale writer from the
// current one.
type leaseState struct {
	holder   string
	gen      int64
	expiryMs int64
}

// SetLeaseTTL overrides the lease soft limit for subsequent
// acquisitions and renewals.
func (fs *FileSystem) SetLeaseTTL(ms int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.leaseTTLMs = ms
}

func (fs *FileSystem) leaseTTLLocked() int64 {
	if fs.leaseTTLMs <= 0 {
		return DefaultLeaseTTLMs
	}
	return fs.leaseTTLMs
}

// liveLeaseLocked returns the unexpired lease on path, nil if none. A
// lease is valid for [grant, expiry): at the expiry instant it is gone,
// so a monitor waking exactly then observes the expired state.
func (fs *FileSystem) liveLeaseLocked(path string) *leaseState {
	l, ok := fs.leases[path]
	if !ok || fs.clock.Now() >= l.expiryMs {
		return nil
	}
	return l
}

// AcquireLease grants (or renews) the write lease on path to holder and
// returns the pipeline generation. A different holder's unexpired lease
// rejects the acquisition; acquiring over an *expired* lease reassigns
// it and bumps the generation — the HDFS-15235 hand-off.
func (fs *FileSystem) AcquireLease(path, holder string) (int64, error) {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.leases == nil {
		fs.leases = make(map[string]*leaseState)
	}
	expiry := fs.clock.Now() + fs.leaseTTLLocked()
	if live := fs.liveLeaseLocked(path); live != nil {
		if live.holder != holder {
			return 0, fmt.Errorf("%w: %s held by %s", ErrLeaseHeld, path, live.holder)
		}
		live.expiryMs = expiry
		return live.gen, nil
	}
	gen := int64(1)
	if old, ok := fs.leases[path]; ok {
		gen = old.gen + 1
	}
	fs.leases[path] = &leaseState{holder: holder, gen: gen, expiryMs: expiry}
	return gen, nil
}

// RenewLease extends holder's lease on path.
func (fs *FileSystem) RenewLease(path, holder string) error {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	live := fs.liveLeaseLocked(path)
	if live == nil || live.holder != holder {
		return fmt.Errorf("%w: %s", ErrLeaseLost, path)
	}
	live.expiryMs = fs.clock.Now() + fs.leaseTTLLocked()
	return nil
}

// ReleaseLease drops holder's lease on path.
func (fs *FileSystem) ReleaseLease(path, holder string) error {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	live := fs.liveLeaseLocked(path)
	if live == nil || live.holder != holder {
		return fmt.Errorf("%w: %s", ErrLeaseLost, path)
	}
	delete(fs.leases, path)
	return nil
}

// LeaseHolder returns the NameNode's current view of path's lease: the
// unexpired holder and generation, or ("", last generation) once
// expired — the state a recovering NameNode reassigns from.
func (fs *FileSystem) LeaseHolder(path string) (string, int64) {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if live := fs.liveLeaseLocked(path); live != nil {
		return live.holder, live.gen
	}
	if old, ok := fs.leases[path]; ok {
		return "", old.gen
	}
	return "", 0
}

// --- replica locations ---------------------------------------------------

// SetReplicas records the NameNode's replica locations for path's
// block. Locations are stored sorted so snapshots render canonically.
func (fs *FileSystem) SetReplicas(path string, nodes ...string) {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.replicas == nil {
		fs.replicas = make(map[string][]string)
	}
	fs.replicas[path] = sortedCopy(nodes)
}

// AddReplica adds a replica location for path.
func (fs *FileSystem) AddReplica(path, node string) {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.replicas == nil {
		fs.replicas = make(map[string][]string)
	}
	for _, n := range fs.replicas[path] {
		if n == node {
			return
		}
	}
	fs.replicas[path] = sortedCopy(append(fs.replicas[path], node))
}

// RemoveReplica drops a replica location for path (a block report that
// no longer lists the block, or a decommissioned node).
func (fs *FileSystem) RemoveReplica(path, node string) {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	kept := fs.replicas[path][:0]
	for _, n := range fs.replicas[path] {
		if n != node {
			kept = append(kept, n)
		}
	}
	if len(kept) == 0 {
		delete(fs.replicas, path)
		return
	}
	fs.replicas[path] = kept
}

// Replicas returns the NameNode's replica locations for path, sorted.
func (fs *FileSystem) Replicas(path string) []string {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return sortedCopy(fs.replicas[path])
}

func sortedCopy(nodes []string) []string {
	out := append([]string(nil), nodes...)
	sort.Strings(out)
	return out
}
