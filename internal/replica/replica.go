// Package replica implements WAL log shipping: a Shipper on the leader
// hands out checkpoint images and sequence-bounded WAL suffixes, and a
// Follower bootstraps from the image, replays shipped batches through
// the engine's recovery apply path into its own copy-on-write store,
// and serves lock-free snapshot reads at a monotone applied-sequence
// watermark.
//
// The protocol is pull-based and stateless on the leader: every pull
// carries the follower's applied watermark and its observed replication
// term, the leader returns the committed batches above the watermark
// (or a resync flag if a checkpoint truncated past it), and the
// follower acks implicitly by advancing the watermark it sends next.
// Crash recovery on either side is therefore free — a follower that
// dies mid-replay simply re-pulls from the last watermark it applied,
// and redelivered batches are skipped idempotently.
//
// Failover rides on the same machinery (promote.go): a follower already
// holds store + pending set + WAL stamp, so promotion is a fence
// exchange (Transport.Fence) that wins the next replication term,
// a drain of the sealed leader's tail, and core.PromoteReplica.
package replica

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// PullResult is one pull's payload: the committed batches above the
// requested watermark (sequence-ordered, possibly capped), the leader's
// current WAL sequence for lag accounting, the leader's replication
// term (a follower that sees it jump knows a promotion happened
// upstream), and the resync flag raised when the leader has
// checkpointed past the watermark — the batches are gone, the follower
// must re-bootstrap from a fresh image.
type PullResult struct {
	Batches    []wal.Batch
	LeaderSeq  uint64
	LeaderTerm uint64
	Resync     bool
}

// FenceResult is a fence exchange's outcome. Granted means the callee
// ceded the write lease at Term to the caller; refused means Term (and
// LeaderAddr, when known) identify whoever already holds a term at
// least as high — the loser's convergence target.
type FenceResult struct {
	Granted    bool
	Term       uint64
	LeaderAddr string
}

// Transport is the follower's view of a leader. Implementations:
// Shipper (in-process), Pipe (in-process with fault hooks, for tests),
// and the server package's network client.
type Transport interface {
	// Bootstrap returns a checkpoint image and its WAL sequence stamp.
	Bootstrap() (image []byte, seq uint64, err error)
	// Pull returns the committed batches with sequences above after.
	// term is the puller's observed replication term: a leader that
	// sees a higher one than its own demotes itself (it has been
	// deposed and this follower knows it).
	Pull(after, term uint64) (PullResult, error)
	// Fence proposes that the caller (serving at addr) lead at term.
	// The callee grants iff term strictly exceeds its effective term,
	// fencing its own WAL in the same atomic step.
	Fence(term uint64, addr string) (FenceResult, error)
}

// Shipper is the leader half: a Transport served straight off a live
// *core.QDB. It is stateless per subscriber — the watermark arrives
// with every pull — so any number of followers can share one Shipper.
type Shipper struct {
	DB *core.QDB
	// MaxBatches caps one pull's payload (0 = unlimited), bounding
	// memory and forcing incremental catch-up; the follower just pulls
	// again from its new watermark.
	MaxBatches int
	// Wait, when positive, long-polls: a pull finding nothing above its
	// watermark parks up to Wait for the next commit instead of
	// returning empty — shipping becomes push-shaped and the follower's
	// lag floor drops from the poll interval to one round trip.
	Wait time.Duration
}

// Bootstrap cuts a fuzzy checkpoint image (the engine stays live; the
// leader's WAL is NOT truncated).
func (s *Shipper) Bootstrap() ([]byte, uint64, error) {
	image, seq, err := s.DB.CheckpointImage()
	return image, seq, err
}

// Pull records the subscriber's ack, then reads the WAL tail above it,
// parking up to Wait first when the tail is empty. A wal.ErrTruncated
// tail (the leader checkpointed past the watermark) is not an error but
// a resync demand. A pull carrying a term above the leader's own
// demotes it (see core.ObserveTerm) — the deposed-leader path when the
// fence exchange never reached it.
func (s *Shipper) Pull(after, term uint64) (PullResult, error) {
	if term > 0 {
		s.DB.ObserveTerm(term, "")
	}
	s.DB.NoteReplicaAck(after)
	if s.Wait > 0 {
		s.DB.WaitForWALSeq(after, s.Wait)
	}
	batches, err := s.DB.WALBatchesFrom(after, s.MaxBatches)
	if err != nil {
		if errors.Is(err, wal.ErrTruncated) {
			return PullResult{LeaderSeq: s.DB.WALSeq(), LeaderTerm: s.DB.Term(), Resync: true}, nil
		}
		return PullResult{}, err
	}
	return PullResult{Batches: batches, LeaderSeq: s.DB.WALSeq(), LeaderTerm: s.DB.Term()}, nil
}

// Fence forwards the proposal to the engine's atomic check-and-fence.
func (s *Shipper) Fence(term uint64, addr string) (FenceResult, error) {
	granted, cur, leader := s.DB.FenceRequest(term, addr)
	return FenceResult{Granted: granted, Term: cur, LeaderAddr: leader}, nil
}

// Pipe wraps a Transport with fault-injection hooks, the harness's
// stand-in for an unreliable network: hooks can fail a call outright
// (the shipper "dying" at a batch boundary) or mutate a pull's payload
// (torn delivery). Nil hooks pass through.
type Pipe struct {
	T               Transport
	BeforeBootstrap func() error
	BeforePull      func(after uint64) error
	AfterPull       func(res *PullResult) error
	BeforeFence     func(term uint64, addr string) error
}

func (p *Pipe) Bootstrap() ([]byte, uint64, error) {
	if p.BeforeBootstrap != nil {
		if err := p.BeforeBootstrap(); err != nil {
			return nil, 0, err
		}
	}
	return p.T.Bootstrap()
}

func (p *Pipe) Pull(after, term uint64) (PullResult, error) {
	if p.BeforePull != nil {
		if err := p.BeforePull(after); err != nil {
			return PullResult{}, err
		}
	}
	res, err := p.T.Pull(after, term)
	if err != nil {
		return PullResult{}, err
	}
	if p.AfterPull != nil {
		if err := p.AfterPull(&res); err != nil {
			return PullResult{}, err
		}
	}
	return res, nil
}

func (p *Pipe) Fence(term uint64, addr string) (FenceResult, error) {
	if p.BeforeFence != nil {
		if err := p.BeforeFence(term, addr); err != nil {
			return FenceResult{}, err
		}
	}
	return p.T.Fence(term, addr)
}

// Follower sync-span stages; order must match the Tracer's stage names.
const (
	stageSyncPull = iota
	stageSyncApply
)

// Follower drives a replica: bootstrap once, then pull-and-apply
// rounds, each one a traced span (pull / apply stages). It owns its own
// telemetry registry — a follower process exposes qdb_replica_lag,
// qdb_follower_applied_seq, and qdb_batches_replayed_total alongside
// the leader-series names a shared dashboard expects.
type Follower struct {
	// Logf, when set, receives transient sync errors from Run (which
	// retries rather than exits); nil discards them. Set before Run.
	Logf func(format string, args ...any)
	// LongPoll marks the transport as parking empty pulls server-side
	// (Shipper.Wait or the network client's wait budget): Run then
	// re-syncs immediately instead of sleeping its interval, since the
	// pacing happens inside the pull. Set before Run.
	LongPoll bool
	// CacheDir, when set, enables the persistent follower cache
	// (cache.go): BootstrapOrResume boots from the spilled image and
	// SaveCache spills the current state. Set before use.
	CacheDir string

	trMu sync.Mutex
	t    Transport

	// hintMu guards leaderAddr: where this follower believes the
	// current leader serves (seeded by SetLeaderAddr, updated by lost
	// elections) — the redirect payload a follower server hands to
	// mutating clients.
	hintMu     sync.Mutex
	leaderAddr string

	state     atomic.Pointer[core.ReplicaState]
	leaderSeq atomic.Uint64
	// leaderTerm is the highest replication term observed in any pull
	// or fence exchange; elections propose leaderTerm+1.
	leaderTerm atomic.Uint64
	pulls      atomic.Int64
	resyncs    atomic.Int64
	syncErrs   atomic.Int64
	// replayed accumulates batches applied across resyncs (a resync
	// swaps in a fresh state whose own counter restarts at zero; a
	// monotonic series must not).
	replayed atomic.Int64
	// Promotion state (promote.go): promoting serializes concurrent
	// local Promote calls, promoted latches success (Run exits),
	// promotions counts successes.
	promoting  atomic.Bool
	promoted   atomic.Bool
	promotions atomic.Int64
	// Cache traffic (cache.go).
	cacheResumes atomic.Int64
	cacheSpills  atomic.Int64

	reg          *telemetry.Registry
	slow         *telemetry.SlowLog
	syncSpan     *telemetry.Tracer
	promotionDur *telemetry.Histogram
}

// NewFollower wires a follower over a transport. Call Bootstrap (or
// BootstrapOrResume) before Sync/Run; reads before bootstrap see an
// empty store via nil-state guards.
func NewFollower(t Transport) *Follower {
	f := &Follower{t: t}
	f.reg = telemetry.NewRegistry()
	f.slow = telemetry.NewSlowLog(128)
	f.reg.UptimeGauges("qdb_follower", time.Now())
	f.reg.GaugeFunc("qdb_follower_applied_seq",
		"Highest leader WAL sequence applied to the replica store.",
		func() int64 { return int64(f.AppliedSeq()) })
	f.reg.GaugeFunc("qdb_replica_lag",
		"Leader WAL sequence (as of the last pull) minus the applied watermark.",
		func() int64 { return int64(f.Lag()) })
	f.reg.GaugeFunc("qdb_replica_term",
		"Highest replication term observed (pulls, fences, or the replayed stream).",
		func() int64 { return int64(f.Term()) })
	f.reg.GaugeFunc("qdb_follower_pending",
		"Leader pending transactions visible at the applied watermark.",
		func() int64 {
			if st := f.state.Load(); st != nil {
				return int64(st.PendingCount())
			}
			return 0
		})
	f.reg.CounterFunc("qdb_batches_replayed_total",
		"WAL batches replayed into the replica store (cumulative across resyncs).",
		f.replayed.Load)
	f.reg.CounterFunc("qdb_replica_redo_skips_total",
		"Fact mutations skipped by the idempotent redo (redeliveries).",
		func() int64 {
			if st := f.state.Load(); st != nil {
				return st.RedoSkips()
			}
			return 0
		})
	f.reg.CounterFunc("qdb_stale_term_refusals_total",
		"Replay chunks refused for carrying a term below the replica's.",
		func() int64 {
			if st := f.state.Load(); st != nil {
				return st.StaleTermRefusals()
			}
			return 0
		})
	f.reg.CounterFunc("qdb_follower_pulls_total", "Pulls issued to the leader.", f.pulls.Load)
	f.reg.CounterFunc("qdb_replica_resyncs_total",
		"Re-bootstraps forced by leader truncation past the watermark.", f.resyncs.Load)
	f.reg.CounterFunc("qdb_follower_sync_errors_total",
		"Sync rounds that failed and were retried.", f.syncErrs.Load)
	f.reg.CounterFunc("qdb_promotions_total",
		"Successful promotions of this follower to leader.", f.promotions.Load)
	f.reg.CounterFunc("qdb_follower_cache_resumes_total",
		"Bootstraps served from the persistent local cache.", f.cacheResumes.Load)
	f.reg.CounterFunc("qdb_follower_cache_spills_total",
		"Replica images spilled to the persistent local cache.", f.cacheSpills.Load)
	f.syncSpan = f.reg.Tracer("qdb_follower_sync_duration_seconds",
		"qdb_follower_sync_stage_duration_seconds", "sync",
		"One pull-and-apply replication round.", []string{"pull", "apply"}, f.slow)
	f.promotionDur = f.reg.Seconds("qdb_promotion_duration_seconds", "",
		"Whole Promote calls: fence exchange, drain, engine construction, checkpoint.")
	return f
}

// SetTransport swaps the leader this follower pulls from — the loser of
// an election converges by re-pointing at the winner. The next Sync
// uses the new transport; an in-flight call finishes against the old,
// which is then closed if it holds a connection (io.Closer).
func (f *Follower) SetTransport(t Transport) {
	f.trMu.Lock()
	old := f.t
	f.t = t
	f.trMu.Unlock()
	if c, ok := old.(io.Closer); ok && old != t {
		c.Close()
	}
}

func (f *Follower) transport() Transport {
	f.trMu.Lock()
	defer f.trMu.Unlock()
	return f.t
}

// SetLeaderAddr seeds or updates the leader address this follower
// redirects mutating clients to.
func (f *Follower) SetLeaderAddr(addr string) {
	f.hintMu.Lock()
	f.leaderAddr = addr
	f.hintMu.Unlock()
}

// LeaderAddr is the redirect target for mutations ("" when unknown).
func (f *Follower) LeaderAddr() string {
	f.hintMu.Lock()
	defer f.hintMu.Unlock()
	return f.leaderAddr
}

// Bootstrap fetches a checkpoint image and installs a fresh replica
// state at its stamp. Also the resync path: a re-bootstrap replaces the
// state wholesale, and the old one (possibly pinned by in-flight
// snapshot reads) stays readable until released.
func (f *Follower) Bootstrap() error {
	image, seq, err := f.transport().Bootstrap()
	if err != nil {
		return fmt.Errorf("replica: bootstrap: %w", err)
	}
	st, err := core.BootReplica(image)
	if err != nil {
		return err
	}
	if got := st.AppliedSeq(); got != seq {
		return fmt.Errorf("replica: bootstrap image stamped %d, transport reported %d", got, seq)
	}
	f.state.Store(st)
	if seq > f.leaderSeq.Load() {
		f.leaderSeq.Store(seq)
	}
	raiseTerm(&f.leaderTerm, st.Term())
	return nil
}

// Sync runs one replication round: pull from the applied watermark,
// apply the returned batches, note the leader's sequence and term. A
// resync demand (leader truncated past us) and detected divergence both
// fall back to a fresh Bootstrap — converge, never diverge silently.
// Returns the number of batches applied.
func (f *Follower) Sync() (int, error) {
	st := f.state.Load()
	if st == nil {
		return 0, fmt.Errorf("replica: Sync before Bootstrap")
	}
	sp := f.syncSpan.Start()
	defer sp.End()
	sp.Mark()
	f.pulls.Add(1)
	res, err := f.transport().Pull(st.AppliedSeq(), f.Term())
	sp.Stage(stageSyncPull)
	if err != nil {
		return 0, fmt.Errorf("replica: pull: %w", err)
	}
	f.leaderSeq.Store(res.LeaderSeq)
	raiseTerm(&f.leaderTerm, res.LeaderTerm)
	if res.Resync {
		f.resyncs.Add(1)
		return 0, f.Bootstrap()
	}
	n, err := st.ApplyBatches(res.Batches)
	sp.Stage(stageSyncApply)
	f.replayed.Add(int64(n))
	if err != nil {
		if errors.Is(err, core.ErrReplicaDiverged) {
			f.resyncs.Add(1)
			if berr := f.Bootstrap(); berr != nil {
				return n, berr
			}
			return n, nil
		}
		return n, err
	}
	return n, nil
}

// Run loops Sync until stop closes or this follower is promoted.
// Transient errors are counted, reported to Logf, and retried under a
// capped jittered backoff — a follower outlives leader restarts and
// network blips; it converges or keeps trying. A non-empty round (or
// LongPoll mode, where the transport itself parks) re-syncs
// immediately; an empty one sleeps interval. Every wait selects on
// stop, so shutdown is prompt even mid-backoff.
func (f *Follower) Run(interval time.Duration, stop <-chan struct{}) {
	bo := NewBackoff(interval, maxDur(5*time.Second, 10*interval))
	for {
		select {
		case <-stop:
			return
		default:
		}
		if f.promoted.Load() {
			return
		}
		n, err := f.Sync()
		switch {
		case errors.Is(err, core.ErrReplicaSealed):
			// Promotion sealed the state out from under the loop.
			return
		case err != nil:
			f.syncErrs.Add(1)
			if f.Logf != nil {
				f.Logf("replica: sync: %v", err)
			}
			if !sleepOrStop(bo.Next(), stop) {
				return
			}
		case n > 0 || f.LongPoll:
			bo.Reset()
			// More may already be committed (capped pull) or the
			// transport paces us server-side: go straight back.
		default:
			bo.Reset()
			if !sleepOrStop(interval, stop) {
				return
			}
		}
	}
}

// sleepOrStop waits d or until stop closes; false means stop won.
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// raiseTerm lifts an atomic term to at least v.
func raiseTerm(m *atomic.Uint64, v uint64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// State returns the live replica state (nil before Bootstrap). A
// resync swaps the state; callers should re-fetch rather than cache.
func (f *Follower) State() *core.ReplicaState { return f.state.Load() }

// AppliedSeq is the replica's monotone applied watermark (0 before
// bootstrap).
func (f *Follower) AppliedSeq() uint64 {
	if st := f.state.Load(); st != nil {
		return st.AppliedSeq()
	}
	return 0
}

// LeaderSeq is the leader's WAL sequence as of the last pull or
// bootstrap.
func (f *Follower) LeaderSeq() uint64 { return f.leaderSeq.Load() }

// Term is the highest replication term this follower has observed:
// from its replayed stream, its bootstrap image, pulls, or fence
// exchanges. Elections propose Term()+1.
func (f *Follower) Term() uint64 {
	t := f.leaderTerm.Load()
	if st := f.state.Load(); st != nil {
		if s := st.Term(); s > t {
			t = s
		}
	}
	return t
}

// Lag is LeaderSeq minus AppliedSeq — batches known shipped but not yet
// applied here. 0 when caught up (and trivially 0 before bootstrap).
func (f *Follower) Lag() uint64 {
	ls, as := f.leaderSeq.Load(), f.AppliedSeq()
	if ls > as {
		return ls - as
	}
	return 0
}

// Resyncs counts re-bootstraps (leader truncation or divergence).
func (f *Follower) Resyncs() int64 { return f.resyncs.Load() }

// BatchesReplayed counts batches applied, cumulative across resyncs.
func (f *Follower) BatchesReplayed() int64 { return f.replayed.Load() }

// Promoted reports whether this follower has been promoted to leader;
// its ReplicaState is sealed and Run has exited (or is about to).
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Promotions counts successful Promote calls (0 or 1 in practice).
func (f *Follower) Promotions() int64 { return f.promotions.Load() }

// Metrics is the follower's own telemetry registry, for exposition by
// a follower-mode server.
func (f *Follower) Metrics() *telemetry.Registry { return f.reg }

// SlowOps returns the follower's slow-span ring.
func (f *Follower) SlowOps() *telemetry.SlowLog { return f.slow }

// Stats adapts the follower's counters into the engine Stats shape a
// stats client already understands: follower-side fields filled, the
// rest zero.
func (f *Follower) Stats() core.Stats {
	s := core.Stats{
		FollowerAppliedSeq: int64(f.AppliedSeq()),
		ReplicaLag:         int64(f.Lag()),
		BatchesReplayed:    f.replayed.Load(),
		ReplicaTerm:        int64(f.Term()),
		Promotions:         int(f.promotions.Load()),
		ReadOnlyMode:       true,
	}
	if st := f.state.Load(); st != nil {
		s.StaleTermRefusals = st.StaleTermRefusals()
		s.CowCopies, s.CowBytes = st.CowStats()
	}
	return s
}
