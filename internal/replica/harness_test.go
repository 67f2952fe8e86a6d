package replica

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/workload"
)

// The replication correctness harness: drive the leader with the
// paper's mixed workload (entangled bookings, reads, blind writes,
// checkpoints), ship the WAL to a follower, and at quiesce demand the
// strongest possible equivalence — the leader's committed-store
// snapshot and the follower's replayed store must encode to IDENTICAL
// BYTES (the canonical snapshot format makes history-independence
// hold). Run under -race in CI: the follower syncs concurrently with
// leader churn, so ReadFrom races appends and checkpoint truncation.

const harnessSeed = 0x5eed

func leaderConfig() workload.Config { return workload.Config{Flights: 4, RowsPerFlight: 4} }

// newLeader builds a WAL-backed engine over a fresh travel world.
func newLeader(t *testing.T, segments int) *core.QDB {
	t.Helper()
	return newLeaderAt(t, leaderOpts(t, segments))
}

// leaderOpts names a leader WAL in a fresh directory.
func leaderOpts(t *testing.T, segments int) core.Options {
	return core.Options{
		WALPath:     filepath.Join(t.TempDir(), "leader.wal"),
		WALSegments: segments,
	}
}

// newLeaderAt builds a leader over a fresh travel world logging to
// opt's WAL; core.Recover over the same world and opt replays it.
func newLeaderAt(t *testing.T, opt core.Options) *core.QDB {
	t.Helper()
	world := workload.NewWorld(leaderConfig())
	q, err := core.New(world.DB, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

// churn drives the leader through a fixed-seed mixed stream: submits
// (rejections tolerated — an overfull flight refuses bookings), reads,
// periodic GroundAll, occasional blind writes, and hook(i) between ops
// for checkpoint/sync injection by the caller.
func churn(t *testing.T, q *core.QDB, hook func(i int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(harnessSeed))
	ops := workload.MixedStream(leaderConfig(), 48, 25, rng)
	for i, op := range ops {
		if op.Txn != nil {
			if _, err := q.Submit(op.Txn); err != nil && !errors.Is(err, core.ErrRejected) {
				t.Fatalf("op %d: submit: %v", i, err)
			}
		} else {
			if _, err := q.Read(op.ReadQuery()); err != nil {
				t.Fatalf("op %d: read: %v", i, err)
			}
		}
		if i%8 == 7 {
			if err := q.GroundAll(); err != nil {
				t.Fatalf("op %d: ground: %v", i, err)
			}
		}
		if i%16 == 11 {
			// A blind write outside the booking protocol: replicated like
			// any other logged batch.
			fact := relstore.GroundFact{Rel: workload.RelFlights, Tuple: value.Tuple{
				value.NewInt(int64(1000 + i)), value.NewString("AUX"),
			}}
			if err := q.Write([]relstore.GroundFact{fact}, nil); err != nil &&
				!errors.Is(err, core.ErrWriteRejected) {
				t.Fatalf("op %d: write: %v", i, err)
			}
		}
		if hook != nil {
			hook(i)
		}
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
}

// catchUp syncs the follower until two consecutive rounds apply nothing
// and the watermark has reached the leader's sequence.
func catchUp(t *testing.T, f *Follower, q *core.QDB) {
	t.Helper()
	idle := 0
	for rounds := 0; idle < 2; rounds++ {
		if rounds > 10_000 {
			t.Fatalf("follower failed to converge: applied %d, leader %d", f.AppliedSeq(), q.WALSeq())
		}
		n, err := f.Sync()
		if err != nil {
			t.Fatalf("sync: %v", err)
		}
		if n == 0 && f.AppliedSeq() >= q.WALSeq() {
			idle++
		} else if n == 0 {
			idle = 0
		}
	}
}

// mustEqualState asserts byte-identical canonical encodings of the
// leader's committed store and the follower's replayed store.
func mustEqualState(t *testing.T, q *core.QDB, st *core.ReplicaState) {
	t.Helper()
	snap := q.Snapshot()
	defer snap.Release()
	var leader, follower bytes.Buffer
	if err := snap.Encode(&leader); err != nil {
		t.Fatal(err)
	}
	if err := st.EncodeState(&follower); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(leader.Bytes(), follower.Bytes()) {
		t.Fatalf("leader and follower stores diverge: %d vs %d canonical bytes",
			leader.Len(), follower.Len())
	}
}

// TestReplicationEquivalence is the harness's main theorem: under mixed
// churn with periodic leader checkpoints (which truncate the WAL out
// from under the tail) and a follower syncing CONCURRENTLY, the
// follower converges to the leader's exact committed state, its applied
// watermark never regresses between bootstraps, and its snapshot reads
// never error mid-replay.
func TestReplicationEquivalence(t *testing.T) {
	q := newLeader(t, 4)
	f := NewFollower(&Shipper{DB: q, MaxBatches: 5})
	if err := f.Bootstrap(); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "leader.ckpt")
	stop := make(chan struct{})
	var raced atomic.Int64 // sync errors observed by the concurrent loop
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastApplied uint64
		lastResyncs := f.Resyncs()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.Sync(); err != nil {
				raced.Add(1) // transient by construction; Run would retry too
			}
			// Watermark monotonicity: within one bootstrapped state the
			// applied seq never regresses. A resync swaps states and may
			// legitimately land above or at a fresh stamp, so re-baseline.
			if r := f.Resyncs(); r != lastResyncs {
				lastResyncs, lastApplied = r, f.AppliedSeq()
			} else if a := f.AppliedSeq(); a < lastApplied {
				panic(fmt.Sprintf("applied watermark regressed: %d -> %d", lastApplied, a))
			} else {
				lastApplied = a
			}
			// A mid-replay snapshot read must never error or block.
			if st := f.State(); st != nil {
				if _, err := st.QuerySnapshot(workload.Op{ReadUser: "f1p0a", ReadFlight: 1}.ReadQuery()); err != nil {
					panic(fmt.Sprintf("follower snapshot read: %v", err))
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	churn(t, q, func(i int) {
		if i%24 == 19 {
			if err := q.Checkpoint(ckpt); err != nil {
				t.Errorf("checkpoint at op %d: %v", i, err)
			}
		}
	})
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	catchUp(t, f, q)
	mustEqualState(t, q, f.State())
	if got, want := f.State().PendingCount(), q.PendingCount(); got != want {
		t.Fatalf("follower sees %d pending transactions, leader has %d", got, want)
	}
	if f.Lag() != 0 {
		t.Fatalf("lag %d after convergence", f.Lag())
	}

	// Epilogue without checkpoints: no truncation means no resync is
	// possible, so catching up from here MUST go through incremental
	// batch replay — a run whose concurrent phase happened to converge
	// purely via bootstraps still proves the replay path.
	replayedBefore := f.BatchesReplayed()
	for i := 0; i < 6; i++ {
		fact := relstore.GroundFact{Rel: workload.RelFlights, Tuple: value.Tuple{
			value.NewInt(int64(9000 + i)), value.NewString("EPI"),
		}}
		if err := q.Write([]relstore.GroundFact{fact}, nil); err != nil {
			t.Fatal(err)
		}
	}
	catchUp(t, f, q)
	mustEqualState(t, q, f.State())
	if f.BatchesReplayed() <= replayedBefore {
		t.Fatal("epilogue did not exercise incremental batch replay")
	}
	// Leader-side accounting: pulls were served and acks recorded.
	s := q.Stats()
	if s.ReplicaPulls == 0 || s.ReplicaAckSeq == 0 {
		t.Fatalf("leader stats missed the subscriber: %+v pulls, ack %d", s.ReplicaPulls, s.ReplicaAckSeq)
	}
	if s.ReplicaLag != 0 {
		t.Fatalf("leader reports lag %d after convergence", s.ReplicaLag)
	}
}

// TestReplicationSequentialDeterminism runs the same churn twice —
// sequentially, follower synced at fixed points — and checks both
// follower stores and both leader stores all encode identically: the
// fixed seed plus canonical encoding make the whole pipeline
// deterministic, which is what makes the fault-sweep tests meaningful.
func TestReplicationSequentialDeterminism(t *testing.T) {
	encode := func(t *testing.T) []byte {
		q := newLeader(t, 3)
		f := NewFollower(&Shipper{DB: q})
		if err := f.Bootstrap(); err != nil {
			t.Fatal(err)
		}
		churn(t, q, func(i int) {
			if i%8 == 3 {
				if _, err := f.Sync(); err != nil {
					t.Fatalf("sync at op %d: %v", i, err)
				}
			}
		})
		catchUp(t, f, q)
		mustEqualState(t, q, f.State())
		var buf bytes.Buffer
		if err := f.State().EncodeState(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := encode(t)
	b := encode(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs produced different follower states")
	}
}

// TestReplicationCommitUnits feeds a follower the multi-grounding
// commit units: with k = 2 most admissions carry the evictions they
// trigger in their pending batch, windows of submits admit as one batch,
// pairs collapse as one unit and GroundAll drains each partition as one
// replay run. The follower, pulling three batches at a time after every
// operation, must end byte-equal with the leader.
func TestReplicationCommitUnits(t *testing.T) {
	world := workload.NewWorld(leaderConfig())
	q, err := core.New(world.DB, core.Options{
		WALPath:     filepath.Join(t.TempDir(), "leader.wal"),
		WALSegments: 2,
		K:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	f := NewFollower(&Shipper{DB: q, MaxBatches: 3})
	if err := f.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(harnessSeed))
	ops := workload.MixedStream(leaderConfig(), 64, 20, rng)
	var window []*txn.T
	for i, op := range ops {
		if op.Txn != nil {
			window = append(window, op.Txn)
		}
		if len(window) == 4 || (op.Txn == nil && len(window) > 0) {
			ids, errs := q.SubmitBatch(window)
			window = window[:0]
			var pair []int64
			pending := q.PendingIDs()
			for j, err := range errs {
				if err != nil && !errors.Is(err, core.ErrRejected) {
					t.Fatalf("op %d: submit: %v", i, err)
				}
				if err == nil && slices.Contains(pending, ids[j]) {
					pair = append(pair, ids[j])
				}
			}
			if len(pair) >= 2 {
				if err := q.GroundGroup(pair[:2]); err != nil {
					t.Fatalf("op %d: ground pair: %v", i, err)
				}
			}
		}
		if op.Txn == nil {
			if _, err := q.Read(op.ReadQuery()); err != nil {
				t.Fatalf("op %d: read: %v", i, err)
			}
		}
		if i%16 == 15 {
			if err := q.GroundAll(); err != nil {
				t.Fatalf("op %d: ground all: %v", i, err)
			}
		}
		if _, err := f.Sync(); err != nil {
			t.Fatalf("op %d: sync: %v", i, err)
		}
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	catchUp(t, f, q)
	mustEqualState(t, q, f.State())
	if got, want := f.State().PendingCount(), q.PendingCount(); got != want {
		t.Fatalf("follower sees %d pending transactions, leader has %d", got, want)
	}
	s := q.Stats()
	if s.GroundUnits == 0 || s.GroundUnits >= s.Grounded || s.ForcedByK == 0 {
		t.Fatalf("no multi-grounding units exercised: %d groundings in %d units, %d forced by k",
			s.Grounded, s.GroundUnits, s.ForcedByK)
	}
	t.Logf("%d groundings in %d units, %d forced by k, %d batches replayed",
		s.Grounded, s.GroundUnits, s.ForcedByK, f.BatchesReplayed())
	if f.Resyncs() != 0 {
		t.Fatalf("follower resynced %d times; no unit was aborted", f.Resyncs())
	}
}

// TestFollowerTailFileScans pins what the leader's in-memory WAL tail
// buys: a caught-up follower's pulls are answered from memory and never
// scan the segment files, while a follower resuming from an image older
// than the log's current open costs exactly one file scan, after which
// it is caught up and its pulls are answered from memory again. The
// count is the qdb_wal_file_scans_total series.
func TestFollowerTailFileScans(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "leader.wal")
	opt := core.Options{WALPath: walPath, WALSegments: 2}
	q, err := core.New(workload.NewWorld(leaderConfig()).DB, opt)
	if err != nil {
		t.Fatal(err)
	}
	current := NewFollower(&Shipper{DB: q})
	stale := NewFollower(&Shipper{DB: q})
	for _, f := range []*Follower{current, stale} {
		if err := f.Bootstrap(); err != nil {
			t.Fatal(err)
		}
	}
	churn(t, q, func(i int) {
		if _, err := current.Sync(); err != nil {
			t.Fatalf("sync at op %d: %v", i, err)
		}
	})
	catchUp(t, current, q)
	if n := q.LogStats().FileScans; n != 0 {
		t.Fatalf("a caught-up follower's pulls scanned the WAL files %d times, want 0", n)
	}

	// Restart the leader on the same log: the reopened tail starts empty
	// at the on-disk sequence, below which only the files can answer.
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q, err = core.Recover(workload.NewWorld(leaderConfig()).DB, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	current.SetTransport(&Shipper{DB: q})
	stale.SetTransport(&Shipper{DB: q})
	if stale.AppliedSeq() >= q.WALSeq() {
		t.Fatalf("stale follower at %d is not behind the reopened log at %d", stale.AppliedSeq(), q.WALSeq())
	}
	catchUp(t, stale, q)
	for i := 0; i < 4; i++ {
		fact := relstore.GroundFact{Rel: workload.RelFlights, Tuple: value.Tuple{
			value.NewInt(int64(7000 + i)), value.NewString("TAIL"),
		}}
		if err := q.Write([]relstore.GroundFact{fact}, nil); err != nil {
			t.Fatal(err)
		}
		catchUp(t, current, q)
		catchUp(t, stale, q)
	}
	mustEqualState(t, q, stale.State())
	mustEqualState(t, q, current.State())
	if n := q.LogStats().FileScans; n != 1 {
		t.Fatalf("WAL file scans = %d, want exactly 1 (the stale follower's first pull)", n)
	}
	var buf bytes.Buffer
	if err := q.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("\nqdb_wal_file_scans_total 1\n")) {
		t.Fatalf("leader metrics do not report the file scan:\n%s", buf.String())
	}
}

// TestFollowerStatsAndMetrics pins the observable surface: the follower
// registry exposes qdb_replica_lag and qdb_follower_applied_seq, and
// Stats() carries the follower-side fields.
func TestFollowerStatsAndMetrics(t *testing.T) {
	q := newLeader(t, 2)
	f := NewFollower(&Shipper{DB: q})
	if err := f.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	churn(t, q, nil)
	catchUp(t, f, q)

	s := f.Stats()
	if s.FollowerAppliedSeq == 0 || s.BatchesReplayed == 0 {
		t.Fatalf("follower Stats not populated: %+v", s)
	}
	if s.FollowerAppliedSeq != int64(f.AppliedSeq()) {
		t.Fatalf("Stats applied seq %d != %d", s.FollowerAppliedSeq, f.AppliedSeq())
	}
	var buf bytes.Buffer
	if err := f.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"qdb_replica_lag", "qdb_follower_applied_seq", "qdb_batches_replayed_total"} {
		if !bytes.Contains(buf.Bytes(), []byte(series)) {
			t.Fatalf("follower metrics missing %s:\n%s", series, buf.String())
		}
	}
	var lbuf bytes.Buffer
	if err := q.Metrics().WritePrometheus(&lbuf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"qdb_replica_lag", "qdb_replica_ack_seq", "qdb_replica_pulls_total"} {
		if !bytes.Contains(lbuf.Bytes(), []byte(series)) {
			t.Fatalf("leader metrics missing %s", series)
		}
	}
}
