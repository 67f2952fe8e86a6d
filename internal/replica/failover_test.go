package replica

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The failover correctness harness. Promotion must be an availability
// story, not a data-loss story: a fenced failover loses NOTHING the old
// leader ever acked (the fence freezes its WAL, the drain collects the
// tail), a forced failover after a leader SIGKILL loses nothing the
// follower had applied, double promotion is impossible (at most one
// fence grant per term), and a deposed leader's late batches are
// refused at every layer — engine admission, WAL append, replica
// apply. Run under -race in CI.

// promoteOpts builds a fresh-WAL Options for one promotion.
func promoteOpts(t *testing.T) core.Options {
	t.Helper()
	return core.Options{
		WALPath:     filepath.Join(t.TempDir(), "promoted.wal"),
		WALSegments: 2,
	}
}

// mustEqualEngines asserts two engines' committed stores encode to
// identical canonical bytes.
func mustEqualEngines(t *testing.T, a, b *core.QDB) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	defer sa.Release()
	defer sb.Release()
	var ba, bb bytes.Buffer
	if err := sa.Encode(&ba); err != nil {
		t.Fatal(err)
	}
	if err := sb.Encode(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatalf("engines diverge: %d vs %d canonical bytes", ba.Len(), bb.Len())
	}
}

// pendingSeat numbers replenished seats so every addPending call books
// against fresh, unique inventory (churn exhausts the seeded seats).
var pendingSeat atomic.Int64

// addPending replenishes a few fresh Available seats (a committed,
// logged write) and books them WITHOUT grounding, so promotion has a
// live superposition to carry across. Returns how many bookings were
// admitted.
func addPending(t *testing.T, q *core.QDB) int {
	t.Helper()
	admitted := 0
	for i := 0; i < 4; i++ {
		n := pendingSeat.Add(1)
		seat := fmt.Sprintf("X%d", n)
		fact := relstore.GroundFact{Rel: workload.RelAvailable, Tuple: value.Tuple{
			value.NewInt(1), value.NewString(seat),
		}}
		if err := q.Write([]relstore.GroundFact{fact}, nil); err != nil {
			t.Fatalf("replenish seat: %v", err)
		}
		b := txn.MustParse(fmt.Sprintf(
			"-%s(1, '%s'), +%s('P%d', 1, '%s') :-1 %s(1, '%s')",
			workload.RelAvailable, seat, workload.RelBookings, n, seat,
			workload.RelAvailable, seat))
		if _, err := q.Submit(b); err != nil {
			if errors.Is(err, core.ErrRejected) {
				continue
			}
			t.Fatalf("pending submit: %v", err)
		}
		admitted++
	}
	return admitted
}

// TestFailoverFencedPromotionZeroLoss is the main fenced-failover
// theorem: after churn (with live pending transactions), a fence
// exchange plus drain plus promotion yields a leader whose committed
// store is byte-identical to the deposed leader's, whose pending set
// survived intact, and which admits new writes at the next term —
// while the old leader refuses every mutation with ErrDemoted and
// points at the winner.
func TestFailoverFencedPromotionZeroLoss(t *testing.T) {
	leaderWAL := leaderOpts(t, 3)
	q := newLeaderAt(t, leaderWAL)
	f := NewFollower(&Shipper{DB: q, MaxBatches: 4})
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
	pending := addPending(t, q)
	if pending == 0 {
		t.Fatal("harness produced no pending transactions")
	}
	// NOTE: the follower is deliberately NOT caught up here — the drain
	// inside Promote must collect the acked tail itself.

	ckpt := filepath.Join(t.TempDir(), "promoted.ckpt")
	const winnerAddr = "127.0.0.1:7777"
	p, err := f.Promote(PromoteConfig{
		WAL: promoteOpts(t), Addr: winnerAddr, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer p.Close()

	// Terms: the winner leads at 1, the deposed leader is fenced at 1.
	if p.Term() != 1 || q.Term() != 1 || f.Term() != 1 {
		t.Fatalf("terms after promotion: promoted %d, old leader %d, follower %d; want 1,1,1",
			p.Term(), q.Term(), f.Term())
	}
	if !f.Promoted() || f.Promotions() != 1 {
		t.Fatalf("promotion not latched: promoted=%v promotions=%d", f.Promoted(), f.Promotions())
	}

	// Zero acked-write loss: committed stores byte-identical, pending
	// superposition carried across with original IDs.
	mustEqualEngines(t, q, p)
	if got, want := p.PendingCount(), q.PendingCount(); got != want {
		t.Fatalf("promoted engine has %d pending, old leader %d", got, want)
	}

	// The deposed leader refuses mutations and redirects at the winner.
	if _, err := q.Submit(workload.PlainBooking("LATE", 1)); !errors.Is(err, core.ErrDemoted) {
		t.Fatalf("deposed leader Submit: %v, want ErrDemoted", err)
	}
	if err := q.GroundAll(); !errors.Is(err, core.ErrDemoted) {
		t.Fatalf("deposed leader GroundAll: %v, want ErrDemoted", err)
	}
	if addr, term := q.LeaderHint(); addr != winnerAddr || term != 1 {
		t.Fatalf("deposed leader hint = %q@%d, want %q@1", addr, term, winnerAddr)
	}
	st := q.Stats()
	if !st.ReadOnlyMode || st.Demotions != 1 {
		t.Fatalf("deposed leader stats: readOnly=%v demotions=%d", st.ReadOnlyMode, st.Demotions)
	}

	// A second local promotion attempt must refuse — the latch holds.
	if _, err := f.Promote(PromoteConfig{WAL: promoteOpts(t), Force: true}); err == nil {
		t.Fatal("double local promotion succeeded")
	}

	// Recovery is promotion from disk: replaying the deposed leader's
	// whole log over the same initial world lands on the promoted engine
	// — the same bytes, the same pending IDs, the same next ID.
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	fromDisk, err := core.Recover(workload.NewWorld(leaderConfig()).DB, leaderWAL)
	if err != nil {
		t.Fatalf("recover the deposed leader's log: %v", err)
	}
	defer fromDisk.Close()
	mustEqualEngines(t, p, fromDisk)
	if got, want := fmt.Sprint(fromDisk.PendingIDs()), fmt.Sprint(p.PendingIDs()); got != want {
		t.Fatalf("recovered pending IDs %s, promoted %s", got, want)
	}
	seat := relstore.GroundFact{Rel: workload.RelAvailable, Tuple: value.Tuple{
		value.NewInt(1), value.NewString("NEXT"),
	}}
	next := txn.MustParse(fmt.Sprintf(
		"-%s(1, 'NEXT'), +%s('NEXT', 1, 'NEXT') :-1 %s(1, 'NEXT')",
		workload.RelAvailable, workload.RelBookings, workload.RelAvailable))
	var ids [2]int64
	for i, e := range []*core.QDB{p, fromDisk} {
		if err := e.Write([]relstore.GroundFact{seat}, nil); err != nil {
			t.Fatalf("replenish seat: %v", err)
		}
		if ids[i], err = e.Submit(next); err != nil {
			t.Fatalf("next submit: %v", err)
		}
	}
	if ids[0] != ids[1] {
		t.Fatalf("next Submit: promoted engine issued ID %d, recovered %d", ids[0], ids[1])
	}

	// The promoted engine is live: it admits and grounds at the new term.
	if err := p.GroundAll(); err != nil {
		t.Fatalf("promoted GroundAll: %v", err)
	}
	if n := addPending(t, p); n == 0 {
		t.Fatal("promoted engine admitted nothing")
	}
	if err := p.GroundAll(); err != nil {
		t.Fatalf("promoted GroundAll after new writes: %v", err)
	}

	// The post-promotion checkpoint anchors the promoted store durably:
	// recovering from it yields the same bytes the promoted engine holds.
	r, err := core.RecoverCheckpoint(ckpt, promoteOpts(t))
	if err != nil {
		t.Fatalf("recover from promotion checkpoint: %v", err)
	}
	defer r.Close()
	if err := r.GroundAll(); err != nil { // checkpoint carried the pending set
		t.Fatal(err)
	}
	if rt := r.Term(); rt != 1 {
		t.Fatalf("recovered term %d, want 1", rt)
	}
}

var errLeaderDown = errors.New("injected: leader SIGKILLed")

// scriptedLeader replays a captured leader history one batch per pull
// and then "dies": every call fails once alive flips off. It models a
// leader SIGKILL at an exact batch boundary.
type scriptedLeader struct {
	image   []byte
	stamp   uint64
	batches []wal.Batch
	lastSeq uint64
	alive   bool
}

func (s *scriptedLeader) Bootstrap() ([]byte, uint64, error) {
	if !s.alive {
		return nil, 0, errLeaderDown
	}
	return s.image, s.stamp, nil
}

func (s *scriptedLeader) Pull(after, term uint64) (PullResult, error) {
	if !s.alive {
		return PullResult{}, errLeaderDown
	}
	for _, b := range s.batches {
		if b.Seq > after {
			return PullResult{Batches: []wal.Batch{b}, LeaderSeq: s.lastSeq}, nil
		}
	}
	return PullResult{LeaderSeq: s.lastSeq}, nil
}

func (s *scriptedLeader) Fence(term uint64, addr string) (FenceResult, error) {
	if !s.alive {
		return FenceResult{}, errLeaderDown
	}
	return FenceResult{Granted: true, Term: term}, nil
}

// TestFailoverKillAtEveryBatchBoundary sweeps leader death across every
// batch boundary in a churned history: the follower applies exactly j
// batches, the leader dies, the fence exchange fails (dead leader), and
// a FORCED promotion must preserve every batch the follower had applied
// — byte-for-byte against an independent replay of the same prefix —
// and yield a live engine at term 1. For every j.
func TestFailoverKillAtEveryBatchBoundary(t *testing.T) {
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
	last := batches[len(batches)-1].Seq

	for j := 0; j <= len(batches); j++ {
		leader := &scriptedLeader{image: image, stamp: stamp, batches: batches, lastSeq: last, alive: true}
		f := NewFollower(leader)
		if err := f.Bootstrap(); err != nil {
			t.Fatalf("boundary %d: bootstrap: %v", j, err)
		}
		for i := 0; i < j; i++ {
			if n, err := f.Sync(); err != nil || n != 1 {
				t.Fatalf("boundary %d: sync %d applied %d batches, err %v", j, i, n, err)
			}
		}
		leader.alive = false // SIGKILL at the boundary

		// The fenced path must fail cleanly against a dead leader...
		if _, err := f.Promote(PromoteConfig{WAL: promoteOpts(t)}); !errors.Is(err, errLeaderDown) {
			t.Fatalf("boundary %d: fence against dead leader: %v, want errLeaderDown", j, err)
		}
		// ...and the forced path must promote with zero applied-write loss.
		p, err := f.Promote(PromoteConfig{WAL: promoteOpts(t), Force: true})
		if err != nil {
			t.Fatalf("boundary %d: forced promote: %v", j, err)
		}

		// Reference: an independent replay of exactly the acked prefix.
		ref, err := core.BootReplica(image)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ApplyBatches(batches[:j]); err != nil {
			t.Fatalf("boundary %d: reference replay: %v", j, err)
		}
		snap := p.Snapshot()
		var got, want bytes.Buffer
		err1 := snap.Encode(&got)
		snap.Release()
		if err1 != nil {
			t.Fatal(err1)
		}
		if err := ref.EncodeState(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			p.Close()
			t.Fatalf("boundary %d: promoted store lost acked writes (%d vs %d bytes)",
				j, got.Len(), want.Len())
		}

		// The sealed pre-promotion state refuses further applies: a late
		// batch from the dead leader cannot sneak in behind the engine.
		if j < len(batches) {
			if _, err := f.State().ApplyBatches(batches[j : j+1]); !errors.Is(err, core.ErrReplicaSealed) {
				p.Close()
				t.Fatalf("boundary %d: sealed state accepted a late batch: %v", j, err)
			}
		}
		if p.Term() != 1 || f.Term() != 1 {
			p.Close()
			t.Fatalf("boundary %d: terms %d/%d, want 1/1", j, p.Term(), f.Term())
		}
		p.Close()
	}
}

// TestDoublePromotionExactlyOneWins races two caught-up followers for
// the same leader's write lease. The fence grant is atomic, so exactly
// one must win; the loser must learn the winner's term and address,
// converge as the winner's follower, and a late old-term batch must be
// refused at both the WAL-append layer and the replica-apply layer.
func TestDoublePromotionExactlyOneWins(t *testing.T) {
	q := newLeader(t, 2)
	f1 := NewFollower(&Shipper{DB: q})
	f2 := NewFollower(&Shipper{DB: q})
	for _, f := range []*Follower{f1, f2} {
		if err := f.Bootstrap(); err != nil {
			t.Fatal(err)
		}
	}
	churn(t, q, nil)
	catchUp(t, f1, q)
	catchUp(t, f2, q)

	addrs := map[*Follower]string{f1: "127.0.0.1:9001", f2: "127.0.0.1:9002"}
	engines := make(map[*Follower]*core.QDB)
	errs := make(map[*Follower]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, f := range []*Follower{f1, f2} {
		f := f
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := f.Promote(PromoteConfig{WAL: promoteOpts(t), Addr: addrs[f]})
			mu.Lock()
			engines[f], errs[f] = p, err
			mu.Unlock()
		}()
	}
	wg.Wait()

	var winner, loser *Follower
	for _, f := range []*Follower{f1, f2} {
		if errs[f] == nil {
			if winner != nil {
				t.Fatal("BOTH candidates won the election")
			}
			winner = f
		} else {
			loser = f
		}
	}
	if winner == nil {
		t.Fatalf("no candidate won: %v / %v", errs[f1], errs[f2])
	}
	p := engines[winner]
	defer p.Close()
	if !errors.Is(errs[loser], ErrLostElection) {
		t.Fatalf("loser error %v, want ErrLostElection", errs[loser])
	}
	if engines[loser] != nil {
		t.Fatal("loser got an engine anyway")
	}

	// The loser learned the winner: term 1, winner's address.
	if loser.Term() != 1 {
		t.Fatalf("loser term %d, want 1", loser.Term())
	}
	if got := loser.LeaderAddr(); got != addrs[winner] {
		t.Fatalf("loser leader hint %q, want %q", got, addrs[winner])
	}
	if addr, term := q.LeaderHint(); addr != addrs[winner] || term != 1 {
		t.Fatalf("old leader hint %q@%d, want %q@1", addr, term, addrs[winner])
	}

	// Zero loss on the winning path.
	mustEqualEngines(t, q, p)

	// The loser converges as the winner's follower: retarget, write new
	// traffic at term 1, and demand byte-equality with the winner.
	loser.SetTransport(&Shipper{DB: p})
	for i := 0; i < 4; i++ {
		if n := addPending(t, p); n == 0 {
			break
		}
		if err := p.GroundAll(); err != nil {
			t.Fatal(err)
		}
	}
	catchUp(t, loser, p)
	mustEqualState(t, p, loser.State())
	if loser.Term() != 1 {
		t.Fatalf("converged loser term %d, want 1", loser.Term())
	}

	// Late old-term batch, WAL-append layer: the deposed leader's WAL is
	// fenced, so even a write that somehow bypassed admission would be
	// refused at the append. Exercise the layer directly.
	lg, err := wal.OpenSegmented(filepath.Join(t.TempDir(), "stale.wal"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if _, err := lg.AppendBatch(0, []wal.Record{{Type: 1, Payload: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	lg.Fence(1) // deposed at term 1; the log still carries term 0
	if _, err := lg.AppendBatch(0, []wal.Record{{Type: 1, Payload: []byte("y")}}); !errors.Is(err, wal.ErrStaleTerm) {
		t.Fatalf("fenced WAL append: %v, want ErrStaleTerm", err)
	}

	// Late old-term batch, replica-apply layer: a follower bootstrapped
	// from the winner (image stamped term 1) must refuse a term-0 batch.
	f3 := NewFollower(&Shipper{DB: p})
	if err := f3.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	stale := []wal.Batch{{Seq: f3.AppliedSeq() + 1, Term: 0,
		Records: []wal.Record{{Type: 1, Payload: []byte("z")}}}}
	if _, err := f3.State().ApplyBatches(stale); !errors.Is(err, wal.ErrStaleTerm) {
		t.Fatalf("replica apply of old-term batch: %v, want ErrStaleTerm", err)
	}
	if f3.State().StaleTermRefusals() != 1 {
		t.Fatalf("stale-term refusal not counted: %d", f3.State().StaleTermRefusals())
	}
}

// TestOldLeaderRejoinsAsFollower closes the failover loop: after a
// fenced promotion, the deposed leader's replica-facing state (its
// committed store) re-joins the cluster as a follower of the winner and
// converges to byte-equality — including new writes it never saw.
func TestOldLeaderRejoinsAsFollower(t *testing.T) {
	q := newLeader(t, 2)
	f := NewFollower(&Shipper{DB: q})
	if err := f.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	churn(t, q, nil)
	catchUp(t, f, q)
	p, err := f.Promote(PromoteConfig{WAL: promoteOpts(t), Addr: "127.0.0.1:9003"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// New traffic only the winner sees.
	if n := addPending(t, p); n == 0 {
		t.Fatal("no new traffic on the winner")
	}
	if err := p.GroundAll(); err != nil {
		t.Fatal(err)
	}

	// The old leader rejoins by following the winner: a fresh follower
	// bootstraps from the promoted engine (the winner's image carries
	// term 1, so the rejoiner can never apply a pre-fence stray) and
	// must land on the winner's exact bytes.
	rejoin := NewFollower(&Shipper{DB: p})
	if err := rejoin.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	catchUp(t, rejoin, p)
	mustEqualState(t, p, rejoin.State())
	if rejoin.Term() != 1 {
		t.Fatalf("rejoined follower term %d, want 1", rejoin.Term())
	}
}

// TestFollowerCacheResume exercises the persistent follower cache:
// spill after catch-up, resume a new follower from the spilled image
// (no network bootstrap), tail the leader from the cached stamp, and
// fall back to the network when the cache is corrupt.
func TestFollowerCacheResume(t *testing.T) {
	q := newLeader(t, 2)
	dir := t.TempDir()

	f1 := NewFollower(&Shipper{DB: q})
	f1.CacheDir = dir
	if err := f1.BootstrapOrResume(); err != nil {
		t.Fatal(err)
	}
	if f1.CacheResumes() != 0 {
		t.Fatal("first bootstrap claimed a cache resume")
	}
	churn(t, q, nil)
	catchUp(t, f1, q)
	if err := f1.SaveCache(); err != nil {
		t.Fatal(err)
	}
	cachedSeq := f1.AppliedSeq()

	// More leader traffic after the spill: the resumed follower must
	// tail it from the cached stamp, not re-bootstrap.
	if n := addPending(t, q); n == 0 {
		t.Fatal("no post-spill traffic")
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}

	f2 := NewFollower(&Shipper{DB: q})
	f2.CacheDir = dir
	if err := f2.BootstrapOrResume(); err != nil {
		t.Fatal(err)
	}
	if f2.CacheResumes() != 1 {
		t.Fatalf("cache resumes = %d, want 1", f2.CacheResumes())
	}
	if got := f2.AppliedSeq(); got != cachedSeq {
		t.Fatalf("resumed at seq %d, cache was spilled at %d", got, cachedSeq)
	}
	catchUp(t, f2, q)
	mustEqualState(t, q, f2.State())
	if f2.Resyncs() != 0 {
		t.Fatalf("cache resume forced %d resyncs", f2.Resyncs())
	}

	// Corrupt cache: fall back to network bootstrap, not a fatal error.
	if err := os.WriteFile(filepath.Join(dir, cacheFileName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	f3 := NewFollower(&Shipper{DB: q})
	f3.CacheDir = dir
	if err := f3.BootstrapOrResume(); err != nil {
		t.Fatalf("corrupt cache was fatal: %v", err)
	}
	if f3.CacheResumes() != 0 {
		t.Fatal("corrupt cache counted as a resume")
	}
	catchUp(t, f3, q)
	mustEqualState(t, q, f3.State())
	// The fallback bootstrap re-spilled a good image for next time.
	f4 := NewFollower(&Shipper{DB: q})
	f4.CacheDir = dir
	if err := f4.BootstrapOrResume(); err != nil || f4.CacheResumes() != 1 {
		t.Fatalf("re-spilled cache unusable: resumes=%d err=%v", f4.CacheResumes(), err)
	}
}

// TestRunExitsOnPromotion pins the Run/Promote interaction: a running
// sync loop must exit promptly once its follower is promoted, not spin
// against the sealed state.
func TestRunExitsOnPromotion(t *testing.T) {
	q := newLeader(t, 2)
	f := NewFollower(&Shipper{DB: q, Wait: 5 * time.Millisecond})
	f.LongPoll = true
	if err := f.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	churn(t, q, nil)
	catchUp(t, f, q)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		f.Run(time.Millisecond, stop)
		close(done)
	}()
	p, err := f.Promote(PromoteConfig{WAL: promoteOpts(t), Addr: "127.0.0.1:9004"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not exit after promotion")
	}
	close(stop)
}
