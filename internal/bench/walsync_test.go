package bench

import (
	"os"
	"runtime"
	"testing"
)

// TestWALSyncStructural is the unconditional (any-core-count) acceptance
// check for the sharded WAL: a durable multi-partition collapse must
// spread its batches across segments, every batch must be accounted for
// (one pending record per submit, one grounding batch per collapse — a
// GroundAll drain of a partition is one commit unit), and
// under SyncOnAppend every batch is covered by exactly one fsync — led
// or piggybacked. RunWALSync additionally recovers from the log and
// compares stores, so this also proves the sharded log round-trips.
func TestWALSyncStructural(t *testing.T) {
	cfg := WALSyncConfig{Partitions: 6, TxnsPerPartition: 3, RowsPerFlight: 6, Workers: 4, Segments: 4}
	r, err := RunWALSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := cfg.Partitions * cfg.TxnsPerPartition
	if r.Grounded != total {
		t.Fatalf("grounded %d, want %d", r.Grounded, total)
	}
	if got := r.ActiveSegments(); got < 2 {
		t.Fatalf("appends landed on %d segment(s), want >= 2 of %d (partition affinity broken?)",
			got, r.Log.Segments)
	}
	var appends, syncs uint64
	for i := range r.Log.Appends {
		appends += r.Log.Appends[i]
		syncs += r.Log.Syncs[i]
	}
	if want := uint64(total + cfg.Partitions); appends != want {
		t.Fatalf("%d batches appended, want %d (pending per txn + one grounding unit per partition drain)", appends, want)
	}
	if syncs+r.Log.GroupCommits != appends {
		t.Fatalf("fsync accounting broken: %d syncs + %d group commits != %d appends",
			syncs, r.Log.GroupCommits, appends)
	}
}

// TestWALSyncSegmentSweep runs the canonical shapes end to end at small
// scale: every segment count must ground and recover everything. The
// timing claim lives in TestWALSyncScaling.
func TestWALSyncSegmentSweep(t *testing.T) {
	cfg := WALSyncConfig{Partitions: 4, TxnsPerPartition: 2, RowsPerFlight: 4, Workers: 4}
	rs, err := RunWALSyncSweep(cfg, []int{1, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Grounded != cfg.Partitions*cfg.TxnsPerPartition {
			t.Fatalf("segments=%d grounded %d", r.Log.Segments, r.Grounded)
		}
	}
	// More segments than partitions is legal; one segment must take ALL
	// batches.
	if rs[0].ActiveSegments() != 1 {
		t.Fatalf("single-segment run touched %d segments", rs[0].ActiveSegments())
	}
}

// TestWALSyncScaling asserts the acceptance bar — durable disjoint-
// partition grounding throughput scales with the segment count (>= 1.5x
// at 4 segments over the single-segment fsync stream) — on machines with
// the cores to show it. Opt in with SCALE=1 (timing assertions are
// hostile to loaded CI boxes); TestWALSyncStructural covers the
// structural side unconditionally.
func TestWALSyncScaling(t *testing.T) {
	if os.Getenv("SCALE") == "" {
		t.Skip("set SCALE=1 to run the timing assertion")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skip("needs 4 cores")
	}
	rs, err := RunWALSyncSweep(DefaultWALSync(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	RenderWALSync(os.Stdout, rs)
	speedup := rs[0].Ground.Seconds() / rs[1].Ground.Seconds()
	if speedup < 1.5 {
		t.Fatalf("4-segment durable grounding speedup = %.2fx, want >= 1.5x", speedup)
	}
}
