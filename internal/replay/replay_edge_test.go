package replay

// Edge-case tests for the replay entry points: the boundaries where a
// scenario's defect does NOT fire (so a fix or a lucky schedule cannot
// be confused with the bug), and the negative paths for unknown
// scenario names.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/flinksim"
	"repro/internal/hbasesim"
	"repro/internal/kafkasim"
)

// TestScenario23UnknownNames rejects every unknown name and names the
// offender in the error.
func TestScenario23UnknownNames(t *testing.T) {
	for _, name := range []string{"", "nope", "Storm", "storm ", "filesize2"} {
		if _, err := Scenario23Trace(name); err == nil {
			t.Errorf("Scenario23Trace(%q) accepted an unknown name", name)
		} else if !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Errorf("Scenario23Trace(%q) error does not name the offender: %v", name, err)
		}
	}
}

// TestSafeModeStartupExitAtZero pins the boundary where the safe-mode
// window is empty: the NameNode exits safe mode at 0 ms, before the
// first write arrives, so even the buggy assume-ready startup serves
// the write. HBASE-537 needs an open window — exit-at-0 must not be
// reported as the bug.
func TestSafeModeStartupExitAtZero(t *testing.T) {
	for _, mode := range []hbasesim.StartupMode{hbasesim.StartupAssumeReady, hbasesim.StartupWaitForNameNode} {
		ok, err := SafeModeStartup(mode, 0)
		if !ok {
			t.Errorf("mode %v with exit-at-0 should serve the first write: %v", mode, err)
		}
	}
}

// TestOffsetGapContiguousLog pins the boundary where the contiguity
// assumption is harmless: compaction over unique keys removes nothing,
// offsets stay contiguous, and the buggy consumer reads the full log
// without error. SPARK-19361 needs a gap — an already-contiguous log
// must not trip the reproduction.
func TestOffsetGapContiguousLog(t *testing.T) {
	broker := kafkasim.NewBroker()
	if err := broker.CreateTopic("events", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		// Unique keys: every record is its key's latest value.
		if _, err := broker.Produce("events", 0, fmt.Sprintf("user-%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := broker.Compact("events", 0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("compaction over unique keys removed %d records, want 0", removed)
	}
	src := flinksim.NewKafkaSource(broker, flinksim.KafkaSourceOptions{
		Topic: "events", AssumeContiguousOffsets: true,
	})
	total := 0
	for {
		recs, err := src.Poll(4)
		if err != nil {
			t.Fatalf("contiguity assumption failed on a contiguous log after %d records: %v", total, err)
		}
		if len(recs) == 0 {
			break
		}
		total += len(recs)
	}
	if total != 10 {
		t.Errorf("consumed %d records from a contiguous log, want 10", total)
	}
}
