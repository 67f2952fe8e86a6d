package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/formula"
	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/wal"
)

// ErrRejected is returned by Submit when admitting the transaction would
// leave the quantum database with no possible worlds (Definition 3.1).
var ErrRejected = errors.New("core: resource transaction rejected: no consistent grounding exists")

// ErrUnknownTxn is returned for operations on transaction IDs that are not
// pending.
var ErrUnknownTxn = errors.New("core: unknown or already-grounded transaction")

// QDB is a quantum database: an extensional store plus an ordered set of
// committed-but-unground resource transactions, partitioned into
// independent composed bodies, each with a cached consistent grounding.
//
// The engine is sharded by partition (internal/sched): partitions are
// mutually non-unifiable by construction, so each gets its own lock and
// operations acquire only the partitions they touch. Lock order, outermost
// first:
//
//		checkpointMu → partition shards (ascending ID) → admitMu → mu | db.mu
//
//	  - checkpointMu serializes checkpoints, cut through truncation, and
//	    is held by nothing else.
//	  - each partition's shard guards its txns and cached groundings.
//	    A shard MAY be held across a WAL wait, and is the one thing
//	    waited on while a batch is in flight: an admission cycle holds
//	    its survivor's shard until the batch is durable and its carried
//	    unit applied — a blind write's home, under which the write's keys
//	    are filed in the index (see publish).
//	    Two locators, and nothing else, turn a key into locked
//	    partitions, in ascending ID order (deadlock-free by
//	    construction): lockCandidates by atoms and lockGroup by pending
//	    IDs. Both validate after locking under one rule — the key must
//	    still resolve inside the locked set — and retry otherwise
//	    (counted in Stats.LockWaits). Beside them only the checkpoint cut
//	    (lockAllPartitions) and GroundAll's pool-task TryLock take shards
//	    in order (Partitions holds one at a time, alone).
//	  - admitMu serializes changes to the partition SET: admission
//	    installs (which can create and merge partitions; a blind write is
//	    an admission member) and the checkpoint cut's final count. It is
//	    taken only by a goroutine that already holds its shards, and
//	    nothing blocks while holding it: its holder checks that its
//	    locked set still covers its atoms (admit.go), appends, merges and
//	    installs, and waits for its fsync after releasing it (publish).
//	    The one shard it locks is a fresh, unpublished one (mergeLocked).
//	    SerialAdmission holds it across the solve as well.
//	  - mu guards only the partition registry (parts, byTxn, idx, the ID
//	    counters) and is held for map operations only — never across a
//	    solve.
//	  - db.mu, inside relstore, is the one store lock. A solve holds it
//	    shared from start to end through a lock-free view (view), so the
//	    store and its epochs stay fixed under the solve and the evaluator
//	    never asks for a lock it already holds; applies — groundings, and
//	    a cycle's carried unit of write facts and evictions — take it
//	    exclusively inside Writer.Apply, after their WAL wait.
//
// Chain solves — the expensive part — run outside mu, under only the
// solved partition's shard and the store's read side; the worker pool
// (Options.Workers) drives solves of independent partitions in parallel.
type QDB struct {
	admitMu sync.Mutex
	mu      sync.Mutex

	// db is the store, read by solves and snapshots; w is its owner's
	// Writer, the only way rows change once New has taken the store.
	db   *relstore.DB
	w    *relstore.Writer
	opt  Options
	pool *sched.Pool

	nextID int64
	// nextPart is the ID the next fresh partition gets; it changes only
	// in mergeLocked, under admitMu and mu.
	nextPart int64
	parts    map[int64]*partition
	byTxn    map[int64]*partition
	idx      *partIndex

	// prep is the cross-solve compiled-body cache, keyed by transaction
	// shape (threaded to the chain solver via chainOpts); rejects
	// memoizes unsatisfiable solve instances, epoch-invalidated. See
	// cache.go.
	prep    *formula.PrepCache
	rejects rejectCache
	// extOverlays recycles admission's extension overlays (decideBatch).
	extOverlays overlayList

	// Admission snapshot counters (see admit.go). partVersion versions
	// the partition SET: bumped on every partition create, merge, retire
	// and admission install (a blind write's included) — always AFTER the
	// registry and index reflect the change, so a snapshot that read the
	// counter BEFORE walking the index observes every install the counter
	// covers, and counter equality under admitMu proves no partition
	// joined the snapshot's candidates. admitSeq counts admission
	// installs, a blind write's included; since the engine is the store's
	// only writer, it lets a validation accept a snapshot whose relevant
	// table epochs moved only by groundings of partitions outside its
	// candidates, which cannot unify with the admission's atoms and so
	// cannot invalidate its solve.
	partVersion atomic.Uint64
	admitSeq    atomic.Uint64

	// log is the segmented write-ahead log (nil without Options.WALPath);
	// immutable after New, internally synchronized. Every durability path
	// follows write-ahead ordering: the commit unit's batch is appended
	// and waited for (with SyncWAL, until a group-commit fsync covers it)
	// BEFORE the store apply and the acknowledgement, so a crash between
	// the two is repaired by replay instead of diverging. The wait runs
	// under the partition shards the batch touched, never under admitMu.
	// See recover.go.
	log *wal.SegmentedLog
	// testCrashApply, when non-nil, injects a failure between a batch's
	// WAL sync and its store apply (crashApplyPoint); test-only.
	testCrashApply func() error
	// checkpointMu serializes Checkpoint from its cut through its WAL
	// truncation, so a checkpoint file is never replaced by an older cut
	// after a newer one truncated the log below its own stamp. Outermost:
	// a checkpoint takes it before admitMu, and nothing else takes it.
	checkpointMu sync.Mutex
	// testCheckpointCrash, when non-nil, injects a failure between a
	// checkpoint's durable rename and its WAL truncation — the widest
	// window of the fuzzy scheme; test-only. testCheckpointCut, when
	// non-nil, runs between a checkpoint's cut and its file write;
	// test-only. testAdmitDecided, when non-nil, runs between an
	// optimistic cycle's decisions and its revalidation; test-only.
	testCheckpointCrash func() error
	testCheckpointCut   func()
	testAdmitDecided    func()
	stats               counters

	// start anchors Stats.StartUnixNano/UptimeNs and the registry's
	// uptime gauges; met is the telemetry registry with the per-op
	// tracers (telemetry.go). Both immutable after New.
	start time.Time
	met   *engineMetrics

	// Failover state (failover.go). failoverMu orders fence exchanges
	// and term observations; it nests inside nothing (never held across
	// another engine lock). fencedTerm and leaderAddr are guarded by it;
	// readOnly is the lock-free entry-guard latch the mutating paths
	// load — the WAL fence is the authoritative backstop for appends
	// that raced the flip.
	failoverMu sync.Mutex
	fencedTerm uint64
	leaderAddr string
	readOnly   atomic.Bool
}

// partition is one independent set of mutually-unifiable pending
// transactions, the unit over which a composed body (Theorem 3.5) is
// maintained. txns and cached are guarded by shard; when the partition
// merges away or drains empty the shard is retired and stale holders
// re-resolve through the registry.
type partition struct {
	shard *sched.Shard
	// txns are the pending transactions (renamed apart), ascending ID.
	txns []*txn.T
	// cached holds one consistent grounding per pending transaction,
	// aligned with txns, valid over the current extensional store. nil
	// once a stale apply dropped it, until a solve over the partition
	// refills it.
	cached []formula.Grounding
}

func (p *partition) id() int64 { return p.shard.ID() }

// New creates a quantum database over db and takes the store's ownership
// latch (relstore.DB.Own): afterwards every mutation goes through
// resource transactions, Write, or grounding, and a write made directly
// on db is refused with relstore.ErrOwned. New fails on a store that
// already has an owner. Recover and PromoteReplica construct through New.
func New(db *relstore.DB, opt Options) (*QDB, error) {
	w, err := db.Own()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	q := &QDB{
		w:      w,
		db:     db,
		opt:    opt,
		pool:   sched.NewPool(opt.workers()),
		nextID: 1,
		parts:  make(map[int64]*partition),
		byTxn:  make(map[int64]*partition),
		idx:    newPartIndex(),
		prep:   formula.NewPrepCache(),
		start:  time.Now(),
	}
	q.met = newEngineMetrics(q)
	q.pool.QueueHist = q.met.poolQueue
	if opt.SlowOpThreshold > 0 {
		q.met.slow.SetThreshold(opt.SlowOpThreshold)
	}
	if opt.WALPath != "" {
		l, err := wal.OpenSegmented(opt.WALPath, opt.walSegments())
		if err != nil {
			return nil, err
		}
		l.SyncOnAppend = opt.SyncWAL
		l.AppendHist = q.met.walAppend
		l.SyncHist = q.met.walSync
		l.BatchBytes = q.met.walBytes
		q.log = l
	}
	return q, nil
}

// Close flushes, fsyncs, and closes the WAL, if any: buffered appends
// (SyncWAL off) are made durable by a clean shutdown. Safe to call more
// than once.
func (q *QDB) Close() error {
	if q.log == nil {
		return nil
	}
	return q.log.Close()
}

// LogStats snapshots the WAL's per-segment activity counters (zero value
// without a WAL): benchmarks and structural tests use it to prove
// groundings of disjoint partitions spread across segments and shared
// fsyncs actually happened.
func (q *QDB) LogStats() wal.SegStats {
	if q.log == nil {
		return wal.SegStats{}
	}
	return q.log.Stats()
}

// Store returns the underlying extensional store for read-only inspection
// by tests and the benchmark harness. Its row mutators refuse with
// relstore.ErrOwned: writes go through the QDB.
func (q *QDB) Store() *relstore.DB { return q.db }

// Stats returns a copy of the counters, folding in the prepared-query
// cache's own counts.
func (q *QDB) Stats() Stats {
	s := q.stats.snapshot()
	h, m := q.prep.Counters()
	s.PrepCacheHits, s.PrepCacheMisses = int(h), int(m)
	s.SnapshotsLive = q.db.SnapshotsLive()
	s.CowCopies, s.CowBytes = q.db.CowStats()
	// Lag is meaningful only once a subscriber has acked; before that a
	// busy leader's raw WAL seq would read as unbounded "lag".
	if q.log != nil && s.ReplicaAckSeq > 0 {
		if seq := int64(q.log.Seq()); seq > s.ReplicaAckSeq {
			s.ReplicaLag = seq - s.ReplicaAckSeq
		}
	}
	s.ReplicaTerm = int64(q.Term())
	s.ReadOnlyMode = q.readOnly.Load()
	s.StartUnixNano = q.start.UnixNano()
	s.UptimeNs = time.Since(q.start).Nanoseconds()
	s.StatsSeq = q.stats.statsSeq.Add(1)
	return s
}

// Workers reports the scheduler's parallelism bound.
func (q *QDB) Workers() int { return q.pool.Workers() }

// PendingCount returns the number of committed-but-unground transactions.
func (q *QDB) PendingCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.byTxn)
}

// PendingIDs returns the IDs of pending transactions, ascending.
func (q *QDB) PendingIDs() []int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	ids := make([]int64, 0, len(q.byTxn))
	for id := range q.byTxn {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Partitions returns the current partition sizes, for stats and tests.
func (q *QDB) Partitions() []int {
	var out []int
	for _, p := range q.livePartitions() {
		p.shard.Lock()
		if p.shard.Alive() && len(p.txns) > 0 {
			out = append(out, len(p.txns))
		}
		p.shard.Unlock()
	}
	sort.Ints(out)
	return out
}

// livePartitions snapshots the registry's partitions, ascending by ID.
func (q *QDB) livePartitions() []*partition {
	q.mu.Lock()
	out := make([]*partition, 0, len(q.parts))
	for _, p := range q.parts {
		out = append(out, p)
	}
	q.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id() < out[j].id() })
	return out
}

// isPending reports whether id is still committed-but-unground.
func (q *QDB) isPending(id int64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.byTxn[id]
	return ok
}

// Submit admits a resource transaction. On success the transaction is
// committed — the system guarantees a grounding will exist whenever
// observation forces it — and its assigned ID is returned. On failure
// ErrRejected is wrapped with diagnostic context.
//
// Submit implements §3.2.1 + §4: tentative partition merge, solution-cache
// extension, full composed-body solve on cache miss, durable logging to
// the pending-transactions table, and k-bound enforcement.
//
// Submit is SubmitBatch of one: the same admission routine (admit.go)
// decides and publishes it. By default the admission is OPTIMISTIC: the
// chain solve — the expensive part — runs outside the admission lock
// against a snapshot of the overlapping partitions, and a short critical
// section validates the snapshot and installs the result, retrying on
// conflict with a serial fallback. Submits touching disjoint partitions
// therefore admit concurrently. Options.SerialAdmission selects the
// serial mode, which holds the admission lock across the whole solve.
// Either way, the k-bound eviction at the end runs with only the target
// partition locked, so evictions of different partitions proceed in
// parallel.
func (q *QDB) Submit(t *txn.T) (int64, error) {
	var ids [1]int64
	var errs [1]error
	q.submit([]*txn.T{t}, ids[:], errs[:], false)
	return ids[0], errs[0]
}

// installLocked publishes a decided cycle, or a recovered pending
// transaction (readmit), into p, the merge of its overlap set: p takes
// the merged chain and its cached solution, the
// registry and overlap index learn the accepted transactions, the
// accepted writes' key atoms are filed under p, and the partition-set
// counters advance — LAST, so snapshot readers that observe the old
// counter values are guaranteed to have missed nothing (see the counter
// ordering note on QDB). Caller holds admitMu and p's shard.
func (q *QDB) installLocked(p *partition, accepted []*txn.T, keys []logic.Atom, merged []*txn.T, cached []formula.Grounding) {
	p.txns = merged
	p.cached = cached
	q.mu.Lock()
	for _, t := range accepted {
		q.byTxn[t.ID] = p
		q.idx.add(t, p.id())
	}
	for _, a := range keys {
		q.idx.updateAtom(a, p.id(), 1)
	}
	q.mu.Unlock()
	q.admitSeq.Add(1)
	q.partVersion.Add(1)
	q.noteHighWater(p)
}

// uninstallLocked undoes the install of admitted, the accepted members
// of one admission whose pending batch did not become durable (publish):
// they leave p, the registry and the overlap index, p's cached solution
// (which grounds them) is dropped, the partition-set counter advances,
// and Stats.Accepted gives them back. What stays in p is the partitions
// the admission merged, each satisfiable on its own and, being mutually
// non-unifiable, together; p is retired if nothing stays. Caller holds
// p's shard.
func (q *QDB) uninstallLocked(p *partition, admitted []*txn.T) {
	keep := make([]*txn.T, 0, len(p.txns))
	q.mu.Lock()
	for _, t := range p.txns {
		if slices.Contains(admitted, t) {
			delete(q.byTxn, t.ID)
			q.idx.remove(t, p.id())
		} else {
			keep = append(keep, t)
		}
	}
	q.mu.Unlock()
	p.txns, p.cached = keep, nil
	if len(keep) == 0 {
		q.retireLocked(p)
	} else {
		q.partVersion.Add(1)
	}
	q.stats.accepted.Add(-int64(len(admitted)))
}

// enforceK force-grounds oldest transactions while p exceeds the
// k-bound (§4), then releases p's shard: the replayable heads as replay
// runs, each head that needs a solve on its own (groundHeadsLocked).
// Only p is locked here, so evictions on independent partitions run
// concurrently. Caller holds p's shard (and nothing else).
func (q *QDB) enforceK(p *partition) error {
	defer p.shard.Unlock()
	over := len(p.txns) - q.opt.k()
	if over <= 0 {
		return nil
	}
	n, err := q.groundHeadsLocked(p, over)
	q.stats.forcedByK.Add(int64(n))
	if err != nil {
		q.stats.forcedByK.Add(1) // the head that failed was forced too
		return fmt.Errorf("core: k-bound forced grounding: %w", err)
	}
	return nil
}

// view takes the store's read side for one solve (relstore.DB.View);
// q.db.EndView drops it. Until then the holder never waits on a pool
// slot, a shard, admitMu or any q.db method: their holders may be
// appliers queued on db.mu behind it. So the solver, its overlays, the
// chooser, epochFingerprint and keyAtoms get the view, never q.db, and
// an admission cycle takes one view for all its decisions (decideBatch).
func (q *QDB) view() relstore.View { return q.db.View() }

// chainOpts builds solver options; maximize toggles optional-atom subset
// search. The cross-solve prepared-query cache rides along.
func (q *QDB) chainOpts(maximize bool) formula.ChainOptions {
	return formula.ChainOptions{
		Planner:           q.opt.Planner,
		MaximizeOptionals: maximize,
		MaxSteps:          q.opt.MaxSolverSteps,
		StepCounter:       &q.stats.solverSteps,
		Prep:              q.prep,
	}
}

// lockCandidates locks and returns the index's live candidate partitions
// for atoms, ascending by partition ID: the one locator by atoms
// (lockGroup is the one by pending IDs). It locks the candidates, then
// re-reads the index under mu; a candidate that appeared in between (an
// install or merge) means a retry, counted in LockWaits. The index is
// conservative, so the set can hold partitions no atom unifies with: the
// callers that merge filter it (overlapping), the others skip what they
// find unaffected.
func (q *QDB) lockCandidates(atoms []logic.Atom) []*partition {
	for {
		cands := q.candidateSnapshot(atoms)
		locked := cands[:0]
		for _, p := range cands {
			p.shard.Lock()
			if p.shard.Alive() {
				locked = append(locked, p)
			} else {
				p.shard.Unlock()
			}
		}
		if q.covers(locked, atoms) {
			return locked
		}
		unlockPartitions(locked)
		q.stats.lockWaits.Add(1)
		runtime.Gosched()
	}
}

// overlapping returns the members of held that overlap atoms, in order.
// Caller holds them.
func overlapping(held []*partition, atoms []logic.Atom) []*partition {
	var out []*partition
	for _, p := range held {
		if overlaps(p, atoms) {
			out = append(out, p)
		}
	}
	return out
}

// covers reports whether every current index candidate for atoms is in
// locked (ascending by ID). It compares IDs against the index's own
// buffer, so the re-read allocates nothing.
func (q *QDB) covers(locked []*partition, atoms []logic.Atom) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := 0
	for _, pid := range q.idx.candidates(atoms) {
		for i < len(locked) && locked[i].id() < pid {
			i++
		}
		if i == len(locked) || locked[i].id() != pid {
			return false
		}
	}
	return true
}

func unlockPartitions(ps []*partition) {
	for _, p := range ps {
		p.shard.Unlock()
	}
}

// unlockOthers unlocks the members of held missing from keep, a
// subsequence of held.
func unlockOthers(held, keep []*partition) {
	for _, p := range held {
		if len(keep) > 0 && keep[0] == p {
			keep = keep[1:]
		} else {
			p.shard.Unlock()
		}
	}
}

// shardsOf appends the shards of ps to dst.
func shardsOf(dst []*sched.Shard, ps []*partition) []*sched.Shard {
	for _, p := range ps {
		dst = append(dst, p.shard)
	}
	return dst
}

// overlaps reports whether any of atoms unifies with any atom of any
// transaction in p (the conservative independence test of §4). Caller
// holds p's shard.
func overlaps(p *partition, atoms []logic.Atom) bool {
	for _, pt := range p.txns {
		for _, b := range pt.Body {
			if unifiesAny(b.Atom, atoms) {
				return true
			}
		}
		for _, u := range pt.Update {
			if unifiesAny(u.Atom, atoms) {
				return true
			}
		}
	}
	return false
}

func unifiesAny(a logic.Atom, atoms []logic.Atom) bool {
	for _, b := range atoms {
		if logic.Unifiable(b, a) {
			return true
		}
	}
	return false
}

// atomsOf collects every atom of a transaction: hard and optional body
// atoms plus update atoms.
func atomsOf(t *txn.T) []logic.Atom {
	out := make([]logic.Atom, 0, len(t.Body)+len(t.Update))
	for _, b := range t.Body {
		out = append(out, b.Atom)
	}
	for _, u := range t.Update {
		out = append(out, u.Atom)
	}
	return out
}

// applyGroundings plays groundings onto the overlay in order.
func applyGroundings(ov *relstore.Overlay, gs []formula.Grounding) error {
	for _, g := range gs {
		if err := ov.ApplyFacts(g.Inserts, g.Deletes); err != nil {
			return err
		}
	}
	return nil
}

// mergeLocked collapses ps into a single partition (reusing the first or
// creating a fresh one) and returns it, locked. Caller holds admitMu and
// every shard in ps; losing shards are retired and released. Caller fixes
// txns/cached on the survivor.
func (q *QDB) mergeLocked(ps []*partition) *partition {
	if len(ps) == 0 {
		q.mu.Lock()
		id := q.nextPart
		q.nextPart++
		q.mu.Unlock()
		p := &partition{shard: sched.NewShard(id)}
		p.shard.WaitHist = q.met.shardWait
		p.shard.Lock() // lock before publishing: a fresh mutex cannot block
		q.mu.Lock()
		q.parts[id] = p
		q.mu.Unlock()
		q.partVersion.Add(1)
		return p
	}
	keep := ps[0]
	if len(ps) > 1 {
		q.stats.partitionMerges.Add(1)
		q.mu.Lock()
		for _, p := range ps[1:] {
			delete(q.parts, p.id())
			for _, t := range p.txns {
				q.byTxn[t.ID] = keep
				q.idx.move(t, p.id(), keep.id())
			}
		}
		q.mu.Unlock()
		for _, p := range ps[1:] {
			p.txns, p.cached = nil, nil
			p.shard.Retire()
			p.shard.Unlock()
		}
		q.partVersion.Add(1)
	}
	return keep
}

// noteHighWater refreshes the high-water counters for the one partition
// an admission touched (keeping admissions O(1) in the partition count).
// Caller holds p's shard.
func (q *QDB) noteHighWater(p *partition) {
	q.mu.Lock()
	pending := len(q.byTxn)
	q.mu.Unlock()
	raiseMax(&q.stats.maxPending, int64(pending))
	raiseMax(&q.stats.maxPartitionPending, int64(len(p.txns)))
	atoms := 0
	for _, t := range p.txns {
		for _, b := range t.Body {
			if !b.Optional {
				atoms++
			}
		}
	}
	raiseMax(&q.stats.maxComposed, int64(atoms))
}

// candidateSnapshot resolves the index's candidate partitions under the
// registry lock, ascending by ID (the order the index returns them in).
func (q *QDB) candidateSnapshot(atoms []logic.Atom) []*partition {
	q.mu.Lock()
	defer q.mu.Unlock()
	ids := q.idx.candidates(atoms)
	out := make([]*partition, 0, len(ids))
	for _, pid := range ids {
		if p := q.parts[pid]; p != nil {
			out = append(out, p)
		}
	}
	return out
}

// strip returns the view of t without optional atoms: the admission
// invariant of §2 covers only non-optional atoms. The view is memoized
// on t (txn.T.Stripped), so its shape is computed once.
func strip(t *txn.T) *txn.T { return t.Stripped() }

func stripAll(ts []*txn.T) []*txn.T {
	out := make([]*txn.T, len(ts))
	for i, t := range ts {
		out[i] = strip(t)
	}
	return out
}

// harden returns the view of t with optional atoms promoted to hard
// ones; used for coordinated pair grounding (§5.1 forward constraints).
// Memoized like strip.
func harden(t *txn.T) *txn.T { return t.Hardened() }
