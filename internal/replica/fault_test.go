package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

// Fault injection: the replication protocol must CONVERGE after every
// failure it is designed to absorb — a shipper dying at any batch
// boundary, a follower crashing mid-replay and resuming with
// redelivered batches, and a leader checkpoint truncating the WAL out
// from under an active tail — and must refuse to proceed (never
// silently diverge) on the one failure it cannot absorb, a compensation
// of state it already applied.

var errShipperDown = errors.New("injected: shipper down")

// TestShipperKillAtEveryBatchBoundary pulls one batch at a time and
// kills the transport before every single pull, resuming on the retry:
// every batch boundary in the stream experiences a shipper death. The
// follower must converge to the leader's exact bytes anyway, applying
// every batch exactly once.
func TestShipperKillAtEveryBatchBoundary(t *testing.T) {
	q := newLeader(t, 3)
	var attempts int
	pipe := &Pipe{
		T: &Shipper{DB: q, MaxBatches: 1},
		BeforePull: func(after uint64) error {
			attempts++
			if attempts%2 == 1 {
				return errShipperDown
			}
			return nil
		},
	}
	f := NewFollower(pipe)
	if err := f.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	churn(t, q, nil) // no checkpoints: the whole history stays pullable

	kills := 0
	idle := 0
	for rounds := 0; idle < 2; rounds++ {
		if rounds > 50_000 {
			t.Fatalf("no convergence: applied %d, leader %d", f.AppliedSeq(), q.WALSeq())
		}
		n, err := f.Sync()
		if err != nil {
			if !errors.Is(err, errShipperDown) {
				t.Fatalf("unexpected sync error: %v", err)
			}
			kills++
			continue
		}
		if n == 0 && f.AppliedSeq() >= q.WALSeq() {
			idle++
		} else if n == 0 {
			idle = 0
		}
	}
	mustEqualState(t, q, f.State())
	if f.Resyncs() != 0 {
		t.Fatalf("kill/resume forced %d resyncs; none should be needed without truncation", f.Resyncs())
	}
	if kills < int(f.BatchesReplayed()) {
		t.Fatalf("sweep killed %d pulls over %d batches; expected a death before every batch",
			kills, f.BatchesReplayed())
	}
}

// TestFollowerCrashMidReplay sweeps every crash point: boot from the
// pre-churn image, apply the first j batches one at a time (a follower
// that died between chunks), then "recover" by redelivering the ENTIRE
// stream from the bootstrap stamp. Redelivered prefixes must be
// skipped via the applied watermark, the suffix applied, and the final
// store byte-identical to the leader's — for every j.
func TestFollowerCrashMidReplay(t *testing.T) {
	q := newLeader(t, 3)
	image, stamp, err := q.CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	churn(t, q, nil)
	batches, err := q.WALBatchesFrom(stamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) < 20 {
		t.Fatalf("churn produced only %d batches; harness too weak", len(batches))
	}
	snap := q.Snapshot()
	defer snap.Release()
	var want bytes.Buffer
	if err := snap.Encode(&want); err != nil {
		t.Fatal(err)
	}

	for j := 0; j <= len(batches); j++ {
		st, err := core.BootReplica(image)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < j; i++ {
			if _, err := st.ApplyBatches(batches[i : i+1]); err != nil {
				t.Fatalf("crash point %d: pre-crash apply %d: %v", j, i, err)
			}
		}
		preCrash := st.AppliedSeq()
		// Recovery redelivers everything; only the suffix may apply.
		n, err := st.ApplyBatches(batches)
		if err != nil {
			t.Fatalf("crash point %d: recovery apply: %v", j, err)
		}
		if n != len(batches)-j {
			t.Fatalf("crash point %d: recovery applied %d batches, want %d", j, n, len(batches)-j)
		}
		if st.AppliedSeq() < preCrash {
			t.Fatalf("crash point %d: watermark regressed %d -> %d", j, preCrash, st.AppliedSeq())
		}
		var got bytes.Buffer
		if err := st.EncodeState(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("crash point %d: recovered store diverges from leader", j)
		}
	}
}

// TestTruncateRacingActiveTail lets leader checkpoints overtake a
// deliberately slow follower: pulls landing below the truncation cut
// must surface as resync demands (never a silent gap), the follower
// must re-bootstrap, and the end state must still be byte-identical.
func TestTruncateRacingActiveTail(t *testing.T) {
	q := newLeader(t, 3)
	f := NewFollower(&Shipper{DB: q, MaxBatches: 1})
	if err := f.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "leader.ckpt")
	churn(t, q, func(i int) {
		if i%8 == 5 {
			if err := q.Checkpoint(ckpt); err != nil {
				t.Fatalf("checkpoint at op %d: %v", i, err)
			}
		}
		if i%16 == 9 {
			// One slow pull between two checkpoints: almost always behind
			// the next cut, so truncation keeps overtaking the tail.
			if _, err := f.Sync(); err != nil {
				t.Fatalf("sync at op %d: %v", i, err)
			}
		}
	})
	catchUp(t, f, q)
	mustEqualState(t, q, f.State())
	if f.Resyncs() == 0 {
		t.Fatal("truncation never overtook the tail; the race was not exercised")
	}
}

// TestDivergenceRefusal feeds the follower an abort compensation
// targeting a batch it has already applied — state it cannot un-apply.
// The only safe behaviour is an explicit ErrReplicaDiverged (which the
// Follower answers with a re-bootstrap); silently continuing would ship
// divergent reads.
func TestDivergenceRefusal(t *testing.T) {
	q := newLeader(t, 2)
	image, stamp, err := q.CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	churn(t, q, nil)
	batches, err := q.WALBatchesFrom(stamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.BootReplica(image)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyBatches(batches); err != nil {
		t.Fatal(err)
	}
	applied := st.AppliedSeq()
	var target [8]byte
	binary.BigEndian.PutUint64(target[:], batches[0].Seq)
	poison := []wal.Batch{{
		Seq:     applied + 1,
		Records: []wal.Record{{Type: 5 /* recAbort */, Payload: target[:]}},
	}}
	if _, err := st.ApplyBatches(poison); !errors.Is(err, core.ErrReplicaDiverged) {
		t.Fatalf("abort of an applied batch: err = %v, want ErrReplicaDiverged", err)
	}

	// The Follower turns that refusal into a re-bootstrap and converges:
	// catch up clean first, then arm the hook so the NEXT pull delivers
	// the poison against fully-applied state.
	var armed, fed bool
	f := NewFollower(&Pipe{
		T: &Shipper{DB: q},
		AfterPull: func(res *PullResult) error {
			if armed && !fed && !res.Resync {
				res.Batches = append(res.Batches, poison...)
				fed = true
			}
			return nil
		},
	})
	if err := f.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	catchUp(t, f, q)
	armed = true
	before := f.Resyncs()
	if _, err := f.Sync(); err != nil {
		t.Fatalf("poisoned sync should resync, not error: %v", err)
	}
	if !fed {
		t.Fatal("hook never delivered the poison")
	}
	if f.Resyncs() != before+1 {
		t.Fatal("divergence did not force a re-bootstrap")
	}
	catchUp(t, f, q)
	mustEqualState(t, q, f.State())
}
