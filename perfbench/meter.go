package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// Heap accounting reads runtime/metrics, never runtime.ReadMemStats,
// which stops the world and would perturb the servers being measured.
const (
	metricAllocObjects = "/gc/heap/allocs:objects"
	metricAllocBytes   = "/gc/heap/allocs:bytes"
	metricLiveBytes    = "/gc/heap/live:bytes"
)

// allocCount is a snapshot of the cumulative heap allocation counters.
type allocCount struct{ objects, bytes uint64 }

func readAllocs() allocCount {
	s := []metrics.Sample{{Name: metricAllocObjects}, {Name: metricAllocBytes}}
	metrics.Read(s)
	return allocCount{objects: s[0].Value.Uint64(), bytes: s[1].Value.Uint64()}
}

func (a allocCount) sub(b allocCount) allocCount {
	return allocCount{objects: a.objects - b.objects, bytes: a.bytes - b.bytes}
}

// liveHeap is the heap occupied by live objects as of the last GC.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: metricLiveBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveAfterGC forces a collection and returns the live heap: called
// while an operation's result is still referenced, it measures the heap
// the operation needs at its end, independent of where the pacer
// happened to schedule collections.
func liveAfterGC() uint64 {
	runtime.GC()
	return liveHeap()
}

// sampler polls the live heap (and an optional probe) every 10ms until
// stopped, keeping the heap readings and the probe's maximum.
type sampler struct {
	probe func() float64

	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	heapMB    []float64 // live-heap readings since the last take
	probePeak float64
}

// startSampler starts polling; probe may be nil.
func startSampler(probe func() float64) *sampler {
	s := &sampler{probe: probe, stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		s.poll()
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
	}
}

func (s *sampler) poll() {
	h := float64(liveHeap()) / (1 << 20)
	var p float64
	if s.probe != nil {
		p = s.probe()
	}
	s.mu.Lock()
	s.heapMB = append(s.heapMB, h)
	s.probePeak = max(s.probePeak, p)
	s.mu.Unlock()
}

// takeHeap returns the live-heap readings, in MB, since the last take.
func (s *sampler) takeHeap() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.heapMB
	s.heapMB = nil
	return h
}

// finish stops polling, waits for the poller to exit and returns the
// heap readings since the last take and the probe's peak.
func (s *sampler) finish() (heapMB []float64, probePeak float64) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heapMB, s.probePeak
}
