package core

import (
	"errors"
	"fmt"
	"runtime"
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
//		admitMu → partition shards (ascending ID) → mu | storeMu
//
//	  - admitMu serializes changes to the partition SET: admission
//	    installs (which can create and merge partitions), blind writes,
//	    and checkpoints. While held, no partition appears or gains atoms,
//	    so an overlap snapshot stays a sound superset without a retry
//	    loop. Submit holds it only for the short validate-and-install
//	    critical section by default — the chain solve runs BEFORE it,
//	    against a versioned snapshot of the overlapping partitions, and
//	    the snapshot is revalidated under the lock before anything is
//	    published (optimistic admission, admit.go). SerialAdmission
//	    restores the classic hold-across-the-solve discipline.
//	  - each partition's shard guards its txns and cached groundings.
//	    Cross-partition operations (merging admissions, entangled pairs
//	    spanning partitions, GroundAll barriers) lock shards in canonical
//	    ID order, which is deadlock-free by construction. Operations that
//	    hold no admitMu (Ground, Read, GroundPair) validate after locking
//	    and retry on a stale shard (counted in Stats.LockWaits).
//	  - mu guards only the partition registry (parts, byTxn, idx, the ID
//	    counters) and is held for map operations only — never across a
//	    solve.
//	  - storeMu orders store mutations against collapsing reads: grounding
//	    executions and accepted writes hold it exclusively for the short
//	    apply+log; Read holds it shared across its final query evaluation
//	    so results are cut at one store state.
//
// Chain solves — the expensive part — run outside mu and storeMu, under
// only the solved partition's shard; the worker pool (Options.Workers)
// drives solves of independent partitions in parallel.
type QDB struct {
	admitMu sync.Mutex
	mu      sync.Mutex
	storeMu sync.RWMutex

	// db is the store, read by solves and snapshots; w is its owner's
	// Writer, the only way rows change once New has taken the store.
	db   *relstore.DB
	w    *relstore.Writer
	opt  Options
	pool *sched.Pool

	nextID   int64
	nextPart int64
	parts    map[int64]*partition
	byTxn    map[int64]*partition
	idx      *partIndex

	// prep is the cross-solve compiled-body cache (threaded to the chain
	// solver via chainOpts); rejects memoizes unsatisfiable solve
	// instances. Both are epoch-invalidated; see cache.go.
	prep    *formula.PrepCache
	rejects rejectCache

	// Optimistic-admission snapshot counters (see admit.go). partVersion
	// versions the partition SET: bumped on every partition create, merge,
	// retire, and admission install — always AFTER the registry and index
	// reflect the change, so a snapshot that read the counter BEFORE
	// walking the index observes every install the counter covers, and
	// counter equality at validation proves the snapshot's overlap set is
	// still the true one. admitSeq counts admission installs alone and
	// writeSeq accepted blind writes (bumped under storeMu exclusive);
	// since the engine is the store's only writer, they let a validation
	// accept a snapshot whose relevant table epochs moved only by
	// groundings of non-overlapping partitions, which cannot unify with
	// the admission's atoms and so cannot invalidate its solve.
	partVersion atomic.Uint64
	admitSeq    atomic.Uint64
	writeSeq    atomic.Uint64

	// log is the segmented write-ahead log (nil without Options.WALPath);
	// immutable after New, internally synchronized. Every durability path
	// follows write-ahead ordering: the commit unit's batch is appended
	// (and, with SyncWAL, group-commit fsynced) BEFORE the store apply,
	// so a crash between the two is repaired by replay instead of
	// diverging. See recover.go.
	log *wal.SegmentedLog
	// testCrashApply, when non-nil, injects a failure between a batch's
	// WAL sync and its store apply (crashApplyPoint); test-only.
	testCrashApply func() error
	// testCheckpointCrash, when non-nil, injects a failure between a
	// checkpoint's durable rename and its WAL truncation — the widest
	// window of the fuzzy scheme; test-only.
	testCheckpointCrash func() error
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
	// only when the cache is disabled.
	cached []formula.Grounding
	// version counts mutations of txns/cached (written under
	// shard). Optimistic admission snapshots it and re-checks it at
	// install time: equality under the shard proves the partition's
	// pending chain and cached solution are exactly what the speculative
	// solve saw.
	version uint64
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
// therefore admit concurrently. Options.SerialAdmission (and
// DisablePartitioning) selects the serial mode, which holds the
// admission lock across the whole solve. Either way, the k-bound
// eviction at the end runs with only the target partition locked, so
// evictions of different partitions proceed in parallel.
func (q *QDB) Submit(t *txn.T) (int64, error) {
	var ids [1]int64
	var errs [1]error
	q.submit([]*txn.T{t}, ids[:], errs[:], false)
	return ids[0], errs[0]
}

// installLocked publishes an accepted admission: the merged chain and
// its cached solution go into p, the registry and overlap index learn
// the new transaction, and the partition-set counters advance — LAST, so
// snapshot readers that observe the old counter values are guaranteed to
// have missed nothing (see the counter ordering note on QDB). Caller
// holds admitMu and p's shard.
func (q *QDB) installLocked(p *partition, admitted *txn.T, merged []*txn.T, cached []formula.Grounding) {
	p.txns = merged
	if q.opt.DisableCache {
		p.cached = nil
	} else {
		p.cached = cached
	}
	p.version++
	q.mu.Lock()
	q.byTxn[admitted.ID] = p
	q.idx.add(admitted, p.id())
	q.mu.Unlock()
	q.admitSeq.Add(1)
	q.partVersion.Add(1)
	q.stats.accepted.Add(1)
	q.noteHighWater(p)
}

// enforceK force-grounds oldest transactions while p exceeds the
// k-bound (§4), then releases p's shard. Only p is locked here, so
// evictions on independent partitions run concurrently. Caller holds p's
// shard (and nothing else).
func (q *QDB) enforceK(p *partition) error {
	for len(p.txns) > q.opt.k() {
		q.stats.forcedByK.Add(1)
		if err := q.groundLocked(p, 0); err != nil {
			p.shard.Unlock()
			return fmt.Errorf("core: k-bound forced grounding: %w", err)
		}
	}
	p.shard.Unlock()
	return nil
}

// chainOpts builds solver options; maximize toggles optional-atom subset
// search. The cross-solve prepared-query cache rides along unless the
// caching ablation is on.
func (q *QDB) chainOpts(maximize bool) formula.ChainOptions {
	opts := formula.ChainOptions{
		Planner:           q.opt.Planner,
		MaximizeOptionals: maximize,
		MaxSteps:          q.opt.MaxSolverSteps,
		StepCounter:       &q.stats.solverSteps,
	}
	if !q.opt.DisableCache {
		opts.Prep = q.prep
	}
	return opts
}

// lockOverlapping locks and returns the live partitions sharing a
// unifiable atom with t, ascending by partition ID. With partitioning
// disabled it returns every partition. The caller MUST hold admitMu (see
// lockOverlappingAtoms); the exact unification test runs on candidates
// only, under their locks.
func (q *QDB) lockOverlapping(t *txn.T) []*partition {
	if q.opt.DisablePartitioning {
		return q.lockAllPartitions()
	}
	atoms := atomsOf(t)
	cands := q.lockOverlappingAtoms(atoms)
	out := cands[:0]
	for _, p := range cands {
		if overlaps(p, atoms) {
			out = append(out, p)
		} else {
			// Index false positive: routine sound-superset slack, not
			// contention — released without touching LockWaits.
			p.shard.Unlock()
		}
	}
	return out
}

// lockOverlappingAtoms locks and returns the live candidate partitions
// for a bare atom set, ascending by partition ID. The caller MUST hold
// admitMu: the candidate set can then only shrink (no admissions run),
// so one pass suffices — candidates that died between snapshot and lock
// are dropped (a stale acquire, counted in LockWaits).
func (q *QDB) lockOverlappingAtoms(atoms []logic.Atom) []*partition {
	cands := q.candidateSnapshot(atoms)
	out := cands[:0]
	for _, p := range cands {
		p.shard.Lock()
		if !p.shard.Alive() {
			p.shard.Unlock()
			q.stats.lockWaits.Add(1)
			continue
		}
		if len(p.txns) == 0 {
			p.shard.Unlock()
			continue
		}
		out = append(out, p)
	}
	return out
}

func unlockPartitions(ps []*partition) {
	for _, p := range ps {
		p.shard.Unlock()
	}
}

func shardsOf(ps []*partition) []*sched.Shard {
	out := make([]*sched.Shard, len(ps))
	for i, p := range ps {
		out[i] = p.shard
	}
	return out
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

// mergedTxns concatenates the partitions' transactions plus the new one,
// ascending by ID (arrival order).
func mergedTxns(ps []*partition, extra *txn.T) []*txn.T {
	var all []*txn.T
	for _, p := range ps {
		all = append(all, p.txns...)
	}
	if extra != nil {
		all = append(all, extra)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
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
			p.version++
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

// lockTxn resolves a pending transaction ID to its current partition and
// position, with the shard locked. When the partition merged away,
// drained, or re-homed the transaction between lookup and lock (a stale
// acquire), it retries; ErrUnknownTxn when the transaction is gone.
func (q *QDB) lockTxn(id int64) (*partition, int, error) {
	for {
		q.mu.Lock()
		p := q.byTxn[id]
		q.mu.Unlock()
		if p == nil {
			return nil, 0, fmt.Errorf("%w: %d", ErrUnknownTxn, id)
		}
		p.shard.Lock()
		if p.shard.Alive() {
			q.mu.Lock()
			cur := q.byTxn[id]
			q.mu.Unlock()
			if cur == p {
				for i, t := range p.txns {
					if t.ID == id {
						return p, i, nil
					}
				}
			}
			if cur == nil {
				p.shard.Unlock()
				return nil, 0, fmt.Errorf("%w: %d", ErrUnknownTxn, id)
			}
		}
		p.shard.Unlock()
		q.stats.lockWaits.Add(1)
		runtime.Gosched()
	}
}

// lockCandidates locks the live partitions that MIGHT contain an atom
// unifiable with the given atoms (the index's sound superset), ascending
// by ID, validating that no new candidate appeared between snapshot and
// lock (admissions run concurrently here — unlike lockOverlapping, the
// caller does not hold admitMu). Retries on a stale set.
func (q *QDB) lockCandidates(atoms []logic.Atom) []*partition {
	for {
		snap := q.candidateSnapshot(atoms)
		locked := snap[:0]
		for _, p := range snap {
			p.shard.Lock()
			if !p.shard.Alive() {
				p.shard.Unlock()
				continue
			}
			locked = append(locked, p)
		}
		// Validate: every current candidate must be in the locked set.
		if subsetByID(q.candidateSnapshot(atoms), locked) {
			return locked
		}
		unlockPartitions(locked)
		q.stats.lockWaits.Add(1)
		runtime.Gosched()
	}
}

// subsetByID reports whether every partition of sub is in set; both
// ascend by ID.
func subsetByID(sub, set []*partition) bool {
	i := 0
	for _, p := range sub {
		for i < len(set) && set[i].id() < p.id() {
			i++
		}
		if i == len(set) || set[i].id() != p.id() {
			return false
		}
	}
	return true
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
// on t (txn.T.Stripped) so its pointer is stable across solves — the
// anchor for the cross-solve prepared-query cache.
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
