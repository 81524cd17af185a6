// Package k8slike implements the §6.3 implication as a runnable
// contrast: "an arguably more tangible solution is to design simple and
// consistent control-plane APIs. Kubernetes presents one good example
// of such a design, where a unified API and object-metadata structure
// ensures semantic consistency and transparency."
//
// The resource manager here is declarative: clients state a desired
// replica count on an object and a reconciler converges actual state
// toward it. Re-submitting the same desire is idempotent, so the
// FLINK-12342 failure class — an imperative client re-requesting
// pending asks under a broken synchrony assumption — cannot amplify:
// the "storm" collapses into repeated writes of the same spec. The
// benchmark harness compares the two designs' request amplification
// directly.
package k8slike

import (
	"fmt"

	"repro/internal/vclock"
)

// ObjectMeta is the uniform metadata every API object carries — the
// "unified object-metadata structure" of the implication.
type ObjectMeta struct {
	Name       string
	Generation int64 // bumped on every spec change
}

// ReplicaSpec is the declared desired state.
type ReplicaSpec struct {
	Replicas int
	MemoryMB int64
}

// ReplicaStatus is the observed state maintained by the reconciler.
type ReplicaStatus struct {
	ReadyReplicas      int
	ObservedGeneration int64
}

// ReplicaSet is the API object.
type ReplicaSet struct {
	Meta   ObjectMeta
	Spec   ReplicaSpec
	Status ReplicaStatus
}

// Cluster is the declarative control plane: an object store plus a
// reconciliation loop on the virtual clock.
type Cluster struct {
	sim     *vclock.Sim
	objects map[string]*ReplicaSet

	// StartupLatencyMs is the time to bring one replica up — the same
	// latency that triggers the imperative storm.
	StartupLatencyMs int64

	capacityMB int64
	usedMB     int64

	applies    int64 // spec writes received
	reconciles int64 // reconcile iterations executed
	started    int64 // replicas actually started
	loop       *vclock.Timer
	busyUntil  int64
}

// Options configure a cluster.
type Options struct {
	StartupLatencyMs int64
	CapacityMB       int64
	ReconcileEveryMs int64
}

// New starts the reconciler on the clock.
//
//crossvet:unused-export BenchmarkControlPlaneAPIDesign (root bench_test.go) runs the declarative side of its comparison here
func New(sim *vclock.Sim, opts Options) *Cluster {
	if opts.StartupLatencyMs == 0 {
		opts.StartupLatencyMs = 150
	}
	if opts.CapacityMB == 0 {
		opts.CapacityMB = 1 << 30
	}
	if opts.ReconcileEveryMs == 0 {
		opts.ReconcileEveryMs = 100
	}
	c := &Cluster{
		sim:              sim,
		objects:          make(map[string]*ReplicaSet),
		StartupLatencyMs: opts.StartupLatencyMs,
		capacityMB:       opts.CapacityMB,
	}
	c.loop = sim.Every(opts.ReconcileEveryMs, c.reconcile)
	return c
}

// Stop halts the reconciler.
func (c *Cluster) Stop() { c.loop.Stop() }

// Apply declares desired state. Re-applying an identical spec is a
// no-op beyond the write itself — the idempotence that removes the
// storm class.
func (c *Cluster) Apply(name string, spec ReplicaSpec) *ReplicaSet {
	c.applies++
	obj, ok := c.objects[name]
	if !ok {
		obj = &ReplicaSet{Meta: ObjectMeta{Name: name}}
		c.objects[name] = obj
	}
	if obj.Spec != spec {
		obj.Spec = spec
		obj.Meta.Generation++
	}
	return obj
}

// Get returns the object.
func (c *Cluster) Get(name string) (*ReplicaSet, error) {
	obj, ok := c.objects[name]
	if !ok {
		return nil, fmt.Errorf("k8slike: replicaset %q not found", name)
	}
	return obj, nil
}

// reconcile converges each object one replica per startup latency — a
// serialized starter, like the YARN allocator it is contrasted with.
func (c *Cluster) reconcile() {
	c.reconciles++
	if c.sim.Now() < c.busyUntil {
		return // a replica is still starting
	}
	for _, obj := range c.objects {
		switch {
		case obj.Status.ReadyReplicas < obj.Spec.Replicas:
			if c.usedMB+obj.Spec.MemoryMB > c.capacityMB {
				continue
			}
			c.busyUntil = c.sim.Now() + c.StartupLatencyMs
			target := obj
			c.sim.After(c.StartupLatencyMs, func() {
				if target.Status.ReadyReplicas < target.Spec.Replicas {
					target.Status.ReadyReplicas++
					c.usedMB += target.Spec.MemoryMB
					c.started++
					target.Status.ObservedGeneration = target.Meta.Generation
				}
			})
			return // one start in flight at a time
		case obj.Status.ReadyReplicas > obj.Spec.Replicas:
			obj.Status.ReadyReplicas--
			c.usedMB -= obj.Spec.MemoryMB
			obj.Status.ObservedGeneration = obj.Meta.Generation
			return
		default:
			obj.Status.ObservedGeneration = obj.Meta.Generation
		}
	}
}

// Stats are the cluster's lifetime counters.
type Stats struct {
	Applies    int64
	Reconciles int64
	Started    int64
}

// Stats returns the counters.
func (c *Cluster) Stats() Stats {
	return Stats{Applies: c.applies, Reconciles: c.reconciles, Started: c.started}
}

// ImpatientClient mirrors the FLINK-12342 client against the
// declarative API: every heartbeat in which the replicas are not ready
// yet, it re-applies its desired state. Against an imperative API this
// behaviour storms; here every re-apply is the same spec.
type ImpatientClient struct {
	cluster *Cluster
	name    string
	spec    ReplicaSpec
	applies int64
	doneAt  int64
	ticker  *vclock.Timer
}

// NewImpatientClient creates the client.
//
//crossvet:unused-export BenchmarkControlPlaneAPIDesign (root bench_test.go) submits through it
func NewImpatientClient(cluster *Cluster, name string, spec ReplicaSpec) *ImpatientClient {
	return &ImpatientClient{cluster: cluster, name: name, spec: spec, doneAt: -1}
}

// Start applies the desire and re-applies it on every heartbeat until
// the replicas are ready.
func (ic *ImpatientClient) Start(sim *vclock.Sim, heartbeatMs int64) {
	apply := func() {
		obj := ic.cluster.Apply(ic.name, ic.spec)
		ic.applies++
		if obj.Status.ReadyReplicas >= ic.spec.Replicas && ic.doneAt < 0 {
			ic.doneAt = sim.Now()
			ic.ticker.Stop()
		}
	}
	obj := ic.cluster.Apply(ic.name, ic.spec)
	ic.applies++
	_ = obj
	ic.ticker = sim.Every(heartbeatMs, apply)
}

// Applies returns the spec writes the client issued.
func (ic *ImpatientClient) Applies() int64 { return ic.applies }

// DoneAt returns when the desire was satisfied (-1 if never).
func (ic *ImpatientClient) DoneAt() int64 { return ic.doneAt }

// ReplicasStarted returns how many replica starts the client's desire
// actually caused — the amplification denominator.
func (ic *ImpatientClient) ReplicasStarted(c *Cluster) int64 {
	obj, err := c.Get(ic.name)
	if err != nil {
		return 0
	}
	return int64(obj.Status.ReadyReplicas)
}
