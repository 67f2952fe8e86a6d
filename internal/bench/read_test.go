package bench

import (
	"os"
	"runtime"
	"testing"
)

// TestParallelReadCorrectness checks the read-storm harness with and
// without the racing applier: every read completes and sees the full
// seat set (RunParallelRead verifies row counts internally), every read
// went through the snapshot path (the structural SnapshotReads counter
// matches exactly), and no snapshot leaks a pin. This is the
// counter-based acceptance check that works on any core count;
// TestParallelReadNotSlowedByApplier adds the timing bar on machines
// that can show it.
func TestParallelReadCorrectness(t *testing.T) {
	cfg := ReadConfig{Readers: 4, ReadsPerReader: 50, RowsPerFlight: 6}
	for _, applier := range []bool{false, true} {
		c := cfg
		c.Applier = applier
		r, err := RunParallelRead(c)
		if err != nil {
			t.Fatalf("applier=%v: %v", applier, err)
		}
		if want := cfg.Readers * cfg.ReadsPerReader; r.Reads != want {
			t.Fatalf("applier=%v: %d reads, want %d", applier, r.Reads, want)
		}
		if r.Stats.SnapshotReads != r.Reads {
			t.Fatalf("applier=%v: SnapshotReads=%d, want %d — a read bypassed the snapshot path",
				applier, r.Stats.SnapshotReads, r.Reads)
		}
		if r.Stats.SnapshotsLive != 0 {
			t.Fatalf("applier=%v: %d snapshots still pinned after the storm",
				applier, r.Stats.SnapshotsLive)
		}
		if applier && r.ApplierWrites == 0 {
			t.Fatal("racing applier completed no writes — readers starved it")
		}
	}
}

// TestParallelReadNotSlowedByApplier asserts the acceptance bar —
// snapshot reads racing a sustained exclusive-lock applier stay
// within ~2x of their applier-idle latency, i.e. collapse-free reads do
// not queue behind writers. Opt in with SCALE=1 (timing assertions are
// hostile to loaded CI boxes); TestParallelReadCorrectness covers the
// structural side unconditionally.
func TestParallelReadNotSlowedByApplier(t *testing.T) {
	if os.Getenv("SCALE") == "" {
		t.Skip("set SCALE=1 to run the timing assertion")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skip("needs 4 cores")
	}
	idle := DefaultRead()
	idle.Applier = false
	base, err := RunParallelRead(idle)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := RunParallelRead(DefaultRead())
	if err != nil {
		t.Fatal(err)
	}
	RenderRead(os.Stdout, []*ReadResult{base, churn})
	ratio := churn.PerRead().Seconds() / base.PerRead().Seconds()
	if ratio > 2 {
		t.Fatalf("per-read latency %.2fx the applier-idle baseline (%v vs %v), want <= 2x",
			ratio, churn.PerRead(), base.PerRead())
	}
}
