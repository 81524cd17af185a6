// Package replay wires the paper's concrete failure scenarios —
// Figures 1 through 5 and the §6 case examples — into runnable
// reproductions on the simulators, each with its buggy and fixed
// behaviour. The csireplay command, the examples, and the benchmark
// harness all drive these entry points.
package replay

import (
	"fmt"
	"strconv"

	"repro/internal/csi"
	"repro/internal/flinksim"
	"repro/internal/hbasesim"
	"repro/internal/hdfssim"
	"repro/internal/kafkasim"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/yarnsim"
)

// StormResult summarizes a FLINK-12342 (Figure 1 / Figure 5) run.
type StormResult struct {
	Mode           flinksim.ClientMode
	Target         int
	Allocated      int
	TotalRequested int
	RMRequestsSeen int64
	DoneAtMs       int64
	AmplificationX float64
	HorizonMs      int64
}

// String renders the result as a Figure 1 style summary line.
func (r StormResult) String() string {
	return fmt.Sprintf("%-36s target=%d allocated=%d requested=%d (%.1fx) done@%dms",
		r.Mode, r.Target, r.Allocated, r.TotalRequested, r.AmplificationX, r.DoneAtMs)
}

// StormOptions parameterize the Figure 1 scenario.
type StormOptions struct {
	Mode        flinksim.ClientMode
	Target      int   // C, the containers the job needs
	HeartbeatMs int64 // Flink's request interval (500 ms in the issue)
	AllocMs     int64 // YARN's per-container allocation latency
	HorizonMs   int64 // virtual-time budget
	// Tracer, when non-nil, records the Flink↔YARN span tree on the
	// scenario's virtual clock.
	Tracer *obs.Tracer
}

// ContainerStorm replays FLINK-12342: a Flink job requesting Target
// containers from a YARN RM whose allocation latency exceeds what the
// client's synchronous assumption tolerates.
func ContainerStorm(opts StormOptions) StormResult {
	if opts.Target == 0 {
		opts.Target = 20
	}
	if opts.HeartbeatMs == 0 {
		opts.HeartbeatMs = 500
	}
	if opts.AllocMs == 0 {
		opts.AllocMs = 150
	}
	if opts.HorizonMs == 0 {
		opts.HorizonMs = 60000
	}
	sim := vclock.New()
	rm := yarnsim.New(sim, yarnsim.Options{AllocLatencyMs: opts.AllocMs, ClusterMemoryMB: 1 << 30})
	client := flinksim.NewYarnResourceClient(sim, rm, flinksim.ResourceClientOptions{
		Mode:        opts.Mode,
		Target:      opts.Target,
		HeartbeatMs: opts.HeartbeatMs,
		Ask:         yarnsim.Resource{MemoryMB: 1024, Vcores: 1},
	})
	var root *obs.Span
	if opts.Tracer != nil {
		opts.Tracer.SetClock(sim)
		root = opts.Tracer.Span(nil, csi.Flink, csi.ControlPlane, "flink-12342/job").
			Set("mode", opts.Mode.String()).Set("target", strconv.Itoa(opts.Target))
		client.SetTrace(opts.Tracer, root)
		rm.SetTrace(opts.Tracer, root)
	}
	client.Start()
	sim.Run(opts.HorizonMs)
	client.Stop()
	root.End()
	res := StormResult{
		Mode:           opts.Mode,
		Target:         opts.Target,
		Allocated:      client.Allocated(),
		TotalRequested: client.TotalRequested(),
		RMRequestsSeen: rm.Stats().RequestsReceived,
		DoneAtMs:       client.DoneAt(),
		HorizonMs:      opts.HorizonMs,
	}
	if opts.Target > 0 {
		res.AmplificationX = float64(res.TotalRequested) / float64(opts.Target)
	}
	return res
}

// FixLadder runs the four Figure 5 behaviours on the same scenario.
func FixLadder() []StormResult {
	out := make([]StormResult, 0, 4)
	for _, mode := range []flinksim.ClientMode{
		flinksim.ModeBuggy, flinksim.ModeWorkaround1, flinksim.ModeWorkaround2, flinksim.ModeAsync,
	} {
		opts := StormOptions{Mode: mode}
		if mode == flinksim.ModeWorkaround1 {
			opts.HeartbeatMs = 5000 // the new configuration parameter
		}
		out = append(out, ContainerStorm(opts))
	}
	return out
}

// CompressedFileRead replays SPARK-27239 (Figures 2 and 4): a Spark
// job validating the size of an HDFS file before reading it. With
// fixedCheck false the job applies the original `length >= 0`
// assertion and fails on compressed files; with true it applies the
// Figure 4 fix (`length >= -1`).
func CompressedFileRead(compressed, fixedCheck bool) ([]byte, error) {
	return CompressedFileReadTraced(compressed, fixedCheck, nil)
}

// CompressedFileReadTraced is CompressedFileRead with span emission:
// the Spark-side job span parents the HDFS write/stat/read spans, and
// the length assertion gets its own (failing, when buggy) span.
func CompressedFileReadTraced(compressed, fixedCheck bool, tr *obs.Tracer) ([]byte, error) {
	fs := hdfssim.New(nil)
	root := tr.Span(nil, csi.Spark, csi.DataPlane, "input-file-read").
		Set("compressed", strconv.FormatBool(compressed))
	defer root.End()
	fs.SetTrace(tr, root)
	path := "/warehouse/events/part-00000"
	if err := fs.Write(path, []byte("row1\nrow2\n"), hdfssim.WriteOptions{Compress: compressed}); err != nil {
		root.Fail(err)
		return nil, err
	}
	info, err := fs.Stat(path)
	if err != nil {
		root.Fail(err)
		return nil, err
	}
	// Spark's InputFileBlockHolder requirement.
	min := int64(0)
	if fixedCheck {
		min = -1
	}
	if info.Length < min {
		err := fmt.Errorf("spark: requirement failed: length (%d) cannot be negative", info.Length)
		root.Child(csi.Spark, csi.DataPlane, "length-check").
			Set("length", strconv.FormatInt(info.Length, 10)).Fail(err).End()
		root.Fail(err)
		return nil, err
	}
	root.Child(csi.Spark, csi.DataPlane, "length-check").
		Set("length", strconv.FormatInt(info.Length, 10)).End()
	data, err := fs.Read(path)
	root.Fail(err)
	return data, err
}

// SchedulerMismatch replays FLINK-19141 (Figure 3): a Flink deployment
// tuned for the capacity scheduler's keys submits a container request
// to an RM running the scheduler named by schedulerClass
// ("capacity" or "fair"). The tunedKeys are the configuration the
// operator set. It returns the allocation error, if any.
func SchedulerMismatch(schedulerClass string, tunedKeys map[string]string) error {
	return SchedulerMismatchTraced(schedulerClass, tunedKeys, nil)
}

// SchedulerMismatchTraced is SchedulerMismatch with span emission: the
// Flink-side submission span parents the YARN request/allocate spans,
// so a mis-normalized ask renders as Flink → YARN ✗.
func SchedulerMismatchTraced(schedulerClass string, tunedKeys map[string]string, tr *obs.Tracer) error {
	conf := yarnsim.Config{
		yarnsim.KeySchedulerClass: schedulerClass,
		yarnsim.KeyMaxAllocMB:     "1500",
	}
	for k, v := range tunedKeys {
		conf[k] = v
	}
	sim := vclock.New()
	rm := yarnsim.New(sim, yarnsim.Options{Conf: conf})
	var root *obs.Span
	if tr != nil {
		tr.SetClock(sim)
		root = tr.Span(nil, csi.Flink, csi.ControlPlane, "submit-job").
			Set("scheduler", schedulerClass)
		rm.SetTrace(tr, root)
	}
	var allocErr error
	rm.RequestContainers(1, yarnsim.Resource{MemoryMB: 1100, Vcores: 1},
		nil, func(err error) { allocErr = err })
	sim.Run(10000)
	root.Fail(allocErr).End()
	return allocErr
}

// Scenario23Trace replays one of the three §2.3 scenarios (storm,
// filesize, scheduler) in its buggy form under a fresh tracer and
// returns the recorded trace.
func Scenario23Trace(name string) (*obs.Tracer, error) {
	tr := obs.NewTracer(nil)
	switch name {
	case "storm":
		ContainerStorm(StormOptions{Mode: flinksim.ModeBuggy, Tracer: tr})
	case "filesize":
		if _, err := CompressedFileReadTraced(true, false, tr); err == nil {
			return nil, fmt.Errorf("replay: buggy length check unexpectedly passed")
		}
	case "scheduler":
		err := SchedulerMismatchTraced("fair", map[string]string{yarnsim.KeyMinAllocMB: "128"}, tr)
		if err == nil {
			return nil, fmt.Errorf("replay: fair scheduler unexpectedly allocated the capacity-tuned ask")
		}
	default:
		return nil, fmt.Errorf("replay: unknown §2.3 scenario %q", name)
	}
	return tr, nil
}

// PmemKill replays FLINK-887: a JobManager container sized with or
// without JVM headroom against YARN's pmem monitor. It reports whether
// the monitor killed the JobManager and the kill message.
func PmemKill(sizing flinksim.JVMSizing) (bool, string) {
	sim := vclock.New()
	rm := yarnsim.New(sim, yarnsim.Options{AllocLatencyMs: 10})
	var jm *yarnsim.Container
	rm.RequestContainers(1, yarnsim.Resource{MemoryMB: 2048, Vcores: 1},
		func(c *yarnsim.Container) { jm = c }, nil)
	sim.Run(100)
	if jm == nil {
		return false, ""
	}
	var reason string
	rm.StartPmemMonitor(1000, func(c *yarnsim.Container) { reason = c.KillReason })
	rm.SetContainerPmem(jm.ID, flinksim.ProcessPmemMB(2048, sizing))
	sim.Run(5000)
	rm.StopPmemMonitor()
	return reason != "", reason
}

// TokenExpiry replays YARN-2790: a YARN job holds an HDFS delegation
// token; with lateRenewal the renewal happens long before the read (and
// the token expires in between), while the fix renews adjacent to the
// consuming operation.
func TokenExpiry(lateRenewal bool) error {
	sim := vclock.New()
	fs := hdfssim.New(sim)
	fs.SetTokenTTL(1000)
	if err := fs.Write("/staging/job.xml", []byte("<conf/>"), hdfssim.WriteOptions{}); err != nil {
		return err
	}
	token := fs.IssueToken("yarn-rm")
	var readErr error
	read := func() { _, readErr = fs.ReadWithToken("/staging/job.xml", token.ID) }
	if lateRenewal {
		// Renewal at submission time, consumption much later.
		if err := fs.RenewToken(token.ID); err != nil {
			return err
		}
		sim.After(5000, read)
	} else {
		// The fix: renew immediately before the consuming operation.
		sim.After(5000, func() {
			if err := fs.RenewToken(token.ID); err != nil {
				readErr = err
				return
			}
			read()
		})
	}
	sim.Run(10000)
	return readErr
}

// SafeModeStartup replays HBASE-537: an HBase region server starting
// against a NameNode that is still in safe mode (which exits at
// exitAtMs on the virtual clock). It returns whether the first Put
// succeeded and the server's crash reason, if any.
func SafeModeStartup(mode hbasesim.StartupMode, exitAtMs int64) (bool, error) {
	sim := vclock.New()
	fs := hdfssim.New(sim)
	fs.SetSafeMode(true)
	sim.After(exitAtMs, func() { fs.SetSafeMode(false) })
	rs := hbasesim.New(sim, fs)
	rs.Start(mode, 500)
	var putErr error
	done := false
	// The first client write arrives shortly after startup begins.
	var attempt func()
	attempt = func() {
		if !rs.Serving() {
			if rs.CrashReason() != nil {
				putErr = rs.CrashReason()
				done = true
				return
			}
			sim.After(500, attempt)
			return
		}
		putErr = rs.Put("t", "row", "v")
		done = true
	}
	sim.After(100, attempt)
	sim.Run(exitAtMs + 5000)
	if !done && putErr == nil {
		putErr = fmt.Errorf("hbase: write never completed")
	}
	return putErr == nil, putErr
}

// OffsetGap replays the SPARK-19361 pattern: a streaming consumer over
// a compacted topic, with and without the offset-contiguity assumption.
// It returns the number of records consumed and the job error, if any.
func OffsetGap(assumeContiguous bool) (int, error) {
	broker := kafkasim.NewBroker()
	if err := broker.CreateTopic("events", 1); err != nil {
		return 0, err
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("user-%d", i%3)
		if _, err := broker.Produce("events", 0, key, []byte{byte(i)}); err != nil {
			return 0, err
		}
	}
	if _, err := broker.Compact("events", 0); err != nil {
		return 0, err
	}
	src := flinksim.NewKafkaSource(broker, flinksim.KafkaSourceOptions{
		Topic: "events", AssumeContiguousOffsets: assumeContiguous,
	})
	total := 0
	for {
		recs, err := src.Poll(4)
		if err != nil {
			return total, err
		}
		if len(recs) == 0 {
			return total, nil
		}
		total += len(recs)
	}
}
