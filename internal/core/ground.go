package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/formula"
	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/txn"
)

// ErrInvariantBroken reports that a grounding the invariant promised could
// not be found; it indicates the store was mutated behind the QDB's back.
var ErrInvariantBroken = errors.New("core: quantum invariant broken: pending transaction has no grounding")

// ErrWriteRejected is returned by Write when a blind write would leave
// some pending transaction without any consistent grounding (§3.2.2).
var ErrWriteRejected = errors.New("core: write rejected: it would empty the set of possible worlds")

// Ground forces value assignment for the pending transaction id,
// executing its update portion against the store. Under semantic
// serializability only that transaction is grounded when possible; under
// strict serializability (or as a fallback) every earlier transaction in
// its partition is grounded first (§3.2.3). Only the transaction's
// partition is locked; groundings of independent partitions proceed in
// parallel. Ground is GroundGroup of one.
func (q *QDB) Ground(id int64) error { return q.GroundGroup([]int64{id}) }

// GroundAll collapses every transaction pending at the time of the call;
// the database is fully extensional afterwards unless concurrent
// admissions land new transactions meanwhile (those belong to the next
// barrier — without the bound, a sustained submit stream could keep a
// GroundAll looping forever). Partitions are independent, so each is
// drained (in its own arrival order) by a worker-pool task; partitions
// busy under another operation are skipped and retried on the next
// round, with a blocking single-partition fallback guaranteeing
// progress.
func (q *QDB) GroundAll() error {
	if err := q.checkWritable(); err != nil {
		return err
	}
	q.mu.Lock()
	var maxID int64 = -1
	for id := range q.byTxn {
		if id > maxID {
			maxID = id
		}
	}
	q.mu.Unlock()
	for {
		q.mu.Lock()
		var oldest int64 = -1
		for id := range q.byTxn {
			if id <= maxID && (oldest < 0 || id < oldest) {
				oldest = id
			}
		}
		q.mu.Unlock()
		if oldest < 0 {
			return nil
		}

		parts := q.livePartitions()
		err := q.pool.Map(len(parts), func(i int) error {
			p := parts[i]
			// Pool tasks must not block on a shard (see sched): skip busy
			// partitions; the outer loop re-examines them.
			if !p.shard.TryLock() {
				q.stats.lockWaits.Add(1)
				return nil
			}
			defer p.shard.Unlock()
			if !p.shard.Alive() || len(p.txns) == 0 {
				return nil
			}
			q.stats.parallelSolves.Add(1)
			_, err := q.groundHeadsLocked(p, len(p.txns))
			return err
		})
		if err != nil {
			return err
		}
		q.mu.Lock()
		_, stillPending := q.byTxn[oldest]
		q.mu.Unlock()
		if stillPending {
			// Every partition holding work was busy under another
			// operation. Block on the oldest pending transaction directly
			// — from this goroutine, never from a pool task — so the loop
			// always makes progress; one grounded concurrently is simply
			// re-examined.
			if err := q.Ground(oldest); err != nil && !errors.Is(err, ErrUnknownTxn) {
				return err
			}
		}
	}
}

// groundLocked collapses p.txns[idx] alone: Ground's path, taken by
// reads and by the heads GroundAll and the k-bound must solve. Caller
// holds p's shard.
func (q *QDB) groundLocked(p *partition, idx int) error {
	return q.collapseLocked(p, []int{idx}, groundAttempts)
}

// groundHeadsLocked grounds p's first n transactions in arrival order —
// GroundAll's drain and the k-bound's eviction — and returns how many it
// grounded. The leading heads whose cached groundings replay go as one
// replay run (a commit unit per unitBodyLimit); each head that needs a
// solve is collapsed alone, as Ground collapses it, and solving it
// re-seeds the cache for the run after it. Caller holds p's shard.
func (q *QDB) groundHeadsLocked(p *partition, n int) (int, error) {
	stop := len(p.txns) - n
	var err error
	for err == nil && len(p.txns) > stop {
		if r := q.replayable(p.txns, p.cached, len(p.txns)-stop); r > 0 {
			sp := q.met.ground.Start()
			_, err = q.replayRun(p, r, &sp)
			sp.End()
		} else {
			err = q.groundLocked(p, 0)
		}
	}
	return n - (len(p.txns) - stop), err
}

// collapseLocked grounds the members at positions pos (ascending ID) of p
// together; it is the one collapse routine behind Ground and GroundGroup
// (§3.2.3). Semantic mode first grounds only the members, moved to the
// front of the chain, when the rest stays satisfiable; a lone head has no
// reorder to try. The strict path — Strict mode, and Semantic's counted
// fallback — grounds the arrival-order prefix through the last member.
// Each path tries the attempts in turn. A lone member is Ground's path:
// before its strict solve, the partition's cached solution replays the
// leading heads through the member where it is fresh (one replay run, no
// solve; see replayRun), and only the remaining prefix is solved. Caller
// holds p's shard.
func (q *QDB) collapseLocked(p *partition, pos []int, attempts []attempt) error {
	sp := q.met.ground.Start()
	defer sp.End()
	if q.opt.Mode == Semantic && (len(pos) > 1 || pos[0] > 0) {
		ok, err := q.tryAttempts(p, pos, true, attempts, &sp)
		if err != nil {
			return err
		}
		if ok {
			q.stats.semanticReorders.Add(1)
			return nil
		}
		q.stats.semanticFallbacks.Add(1)
	}
	// Each replay is exactly the grounding the strict chain would assign
	// that head, so only the suffix the cache cannot cover (optional atoms,
	// staleness, chooser sampling) pays a solve.
	if len(pos) == 1 {
		if r := q.replayable(p.txns, p.cached, pos[0]+1); r > 0 {
			done, err := q.replayRun(p, r, &sp)
			if err != nil {
				return err
			}
			if done > pos[0] {
				return nil
			}
			pos[0] -= done
		}
	}
	ok, err := q.tryAttempts(p, pos, false, attempts, &sp)
	if err != nil {
		return err
	}
	if !ok {
		return ErrInvariantBroken
	}
	return nil
}

// replayable reports how many of a chain's first limit heads can ground
// by replaying its cached consistent grounding instead of solving: the
// engine is the store's only writer and keeps the cached solution
// aligned on every write that could affect it, so its leading groundings
// are still consistent and can execute directly. This is the
// cross-solve solution cache's hit path — a GroundAll drain or k-bound
// eviction of an unchanged partition performs zero solver work after
// admission.
//
// Replay stops at the first head with optional atoms (grounding
// maximizes them; the cached solution was solved over stripped views),
// and takes nothing when a chooser wants candidates to pick from or the
// cache is unaligned.
func (q *QDB) replayable(txns []*txn.T, cached []formula.Grounding, limit int) int {
	if q.opt.sample() > 1 || len(cached) != len(txns) {
		return 0
	}
	n := 0
	for n < limit && n < len(txns) && len(txns[n].OptionalAtoms()) == 0 {
		n++
	}
	return n
}

// replayRun grounds p's first n heads (n from replayable) from the
// cached solution as a run of commit units — one WAL batch and one
// atomic store apply each, split only at unitBodyLimit — and returns how
// many it grounded. Fewer than n means a unit no longer applied (a key
// collision with a commuting engine write): the store is unchanged by
// that unit, its batch is compensated, and the cache is dropped so the
// solve paths take over. Caller holds p's shard.
func (q *QDB) replayRun(p *partition, n int, sp *telemetry.Span) (int, error) {
	done := 0
	for done < n {
		// Write-ahead ordering: log+sync the unit with no store lock held
		// (so replays of partitions on different WAL segments fsync
		// concurrently and ones sharing a segment group-commit), then
		// apply. Only groundings of OTHER partitions, which cannot unify
		// with this one and so commute with these groundings, can land in
		// between.
		walStart := time.Now()
		m, seq, err := q.logGroundings(p.id(), p.cached[:n-done], unitBodyLimit)
		sp.Add(stageGroundWAL, time.Since(walStart))
		if err != nil {
			return done, err
		}
		if err := q.crashApplyPoint(); err != nil {
			return done, err
		}
		applyStart := time.Now()
		if err := q.applyUnit(nil, p.cached[:m]); err != nil {
			q.stats.solutionStale.Add(1)
			p.cached = nil
			return done, q.logAbort(p.id(), seq, nil)
		}
		sp.Add(stageGroundApply, time.Since(applyStart))
		q.stats.solutionReplays.Add(int64(m))
		// The tail was solved over the store state that now includes the
		// replayed heads' updates (chain property), so it remains the
		// partition's cached solution.
		q.retireHeads(p, m)
		done += m
	}
	return done, nil
}

// unitPool recycles applyUnit's unit lists.
var unitPool = sync.Pool{New: func() any { return new([]relstore.Unit) }}

// applyUnit applies writes, then gs in chain order, to the store as one
// commit unit: one store-lock acquisition, all or nothing
// (relstore.Writer.Apply). On success it counts the groundings and, if
// there are any, the unit.
func (q *QDB) applyUnit(writes []relstore.Unit, gs []formula.Grounding) error {
	up := unitPool.Get().(*[]relstore.Unit)
	us := append((*up)[:0], writes...)
	for _, g := range gs {
		us = append(us, relstore.Unit{Inserts: g.Inserts, Deletes: g.Deletes})
	}
	err := q.w.Apply(us)
	clear(us)
	*up = us[:0]
	unitPool.Put(up)
	if err == nil && len(gs) > 0 {
		q.stats.grounded.Add(int64(len(gs)))
		q.stats.groundUnits.Add(1)
	}
	return err
}

// retireHeads removes p's first n transactions, whose groundings the
// store now holds, along with their cached groundings, and retires p if
// that empties it. Caller holds p's shard.
func (q *QDB) retireHeads(p *partition, n int) {
	if n > 0 {
		q.mu.Lock()
		for _, t := range p.txns[:n] {
			delete(q.byTxn, t.ID)
			q.idx.remove(t, p.id())
		}
		q.mu.Unlock()
	}
	p.txns = p.txns[n:]
	p.cached = p.cached[n:]
	if len(p.txns) == 0 {
		q.retireLocked(p)
	}
}

// retireLocked removes the emptied p from the registry and retires its
// shard. Caller holds p's shard.
func (q *QDB) retireLocked(p *partition) {
	q.mu.Lock()
	delete(q.parts, p.id())
	q.mu.Unlock()
	p.shard.Retire()
	q.partVersion.Add(1)
}

// attempt is how one collapse attempt presents its members to the
// solver.
type attempt uint8

const (
	// coordinated hardens every member after the first: a later member's
	// optional atoms can unify with earlier members' pending inserts, so
	// the solver backtracks over earlier choices until the members
	// coordinate (§5.1). On the semantic path the first member is
	// stripped.
	coordinated attempt = iota
	// maximized keeps every member's optional atoms, maximized.
	maximized
	// hardened hardens every member.
	hardened
)

// The attempts of each collapse entry point, in the order tried.
var (
	groundAttempts      = []attempt{maximized}
	groupAttempts       = []attempt{coordinated, maximized}
	coordinatedAttempts = []attempt{hardened}
)

// tryAttempts tries attempts in turn on one path until one grounds the
// members at positions pos (ascending ID) of p, and reports whether one
// did. The semantic path solves the members first and every other
// transaction after them, stripped, and grounds only the members. The
// strict path solves in arrival order and grounds the prefix through the
// last member; the non-members in that prefix keep their optionals
// (maximized), the ones after it are stripped. Caller holds p's shard.
func (q *QDB) tryAttempts(p *partition, pos []int, semantic bool, attempts []attempt, sp *telemetry.Span) (bool, error) {
	n := len(p.txns)
	order, count := make([]int, 0, n), pos[len(pos)-1]+1
	if semantic {
		order, count = append(order, pos...), len(pos)
	}
	for i := 0; i < n; i++ {
		if !semantic || !slices.Contains(pos, i) {
			order = append(order, i)
		}
	}
	for _, a := range attempts {
		solver := make([]*txn.T, n)
		for k, i := range order {
			t, m := p.txns[i], slices.Index(pos, i)
			switch {
			case m < 0:
				if k >= count {
					t = strip(t)
				}
			case a == hardened || a == coordinated && m > 0:
				t = harden(t)
			case a == coordinated && semantic:
				t = strip(t)
			}
			solver[k] = t
		}
		ok, err := q.trySolveAndApply(p, order, solver, count, sp)
		if ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// trySolveAndApply solves the partition's chain in the given order (a
// permutation of partition positions) using the solver views, and on
// success executes the first groundCount groundings against the store,
// removing those transactions and caching the rest. Returns ok=false when
// the chain is unsatisfiable in this order.
//
// Caller holds p's shard. The negative probe, the solve and the chooser
// read one store view (QDB.view) — solves of independent partitions
// still overlap. The grounded transactions then execute as ONE commit
// unit: one WAL batch, logged write-ahead with no store lock held, and
// one atomic store apply, so a read sees all of them or none.
func (q *QDB) trySolveAndApply(p *partition, order []int, solver []*txn.T, groundCount int, sp *telemetry.Span) (bool, error) {
	maximize := false
	for _, t := range solver[:groundCount] {
		if len(t.OptionalAtoms()) > 0 {
			maximize = true
			break
		}
	}
	solveStart := time.Now()
	sol, err := q.solveForGround(q.view(), solver, maximize)
	q.db.EndView()
	sp.Add(stageGroundSolve, time.Since(solveStart))
	if sol == nil || err != nil {
		return false, err
	}

	// Partition split: keep positions not in order[:groundCount], which
	// ascend (the members, or the arrival-order prefix).
	grounded := order[:groundCount]
	var rest []*txn.T
	var removed []*txn.T
	for i, t := range p.txns {
		if len(grounded) > 0 && grounded[0] == i {
			removed = append(removed, t)
			grounded = grounded[1:]
		} else {
			rest = append(rest, t)
		}
	}

	// Execute the grounded transactions as one commit unit, write-ahead:
	// the unit's batch (each grounding's facts + tombstone, in chain
	// order) is appended and, with SyncWAL, group-commit synced with no
	// store lock held, and only then applied, all at once. Log sequence
	// order stays consistent with apply order where it matters:
	// same-partition batches are strictly ordered (the next append
	// happens after the previous apply, under this shard), and batches of
	// other partitions commute with these groundings (their atoms cannot
	// unify; residual key collisions fail closed at Apply, which leaves
	// the store unchanged, and the batch is compensated with an abort
	// record). A crash between the batch's sync and its apply is repaired
	// by replay — the recovered store includes every grounding the live
	// store was about to get. A solved unit is never split: it is applied
	// whole or not at all, whatever its size.
	gs := sol.Groundings[:groundCount]
	walStart := time.Now()
	_, seq, err := q.logGroundings(p.id(), gs, math.MaxInt)
	sp.Add(stageGroundWAL, time.Since(walStart))
	if err != nil {
		return false, err
	}
	if err := q.crashApplyPoint(); err != nil {
		return false, err
	}
	applyStart := time.Now()
	if err := q.applyUnit(nil, gs); err != nil {
		err = fmt.Errorf("core: executing grounding of txn %d: %w", gs[0].Txn.ID, err)
		if aerr := q.logAbort(p.id(), seq, nil); aerr != nil {
			err = errors.Join(err, aerr)
		}
		return false, err
	}
	sp.Add(stageGroundApply, time.Since(applyStart))

	q.mu.Lock()
	for _, t := range removed {
		delete(q.byTxn, t.ID)
		q.idx.remove(t, p.id())
	}
	q.mu.Unlock()
	p.txns = rest
	// Remaining groundings were solved over the store state that now
	// includes the executed prefix, and in the solve order; for the orders
	// used here (arrival order, or the members first) the tail is already
	// in ascending-ID partition order.
	p.cached = append([]formula.Grounding(nil), sol.Groundings[groundCount:]...)
	if len(p.txns) == 0 {
		q.retireLocked(p)
	}
	return true, nil
}

// solveForGround is trySolveAndApply's decision over the view v: the
// negative probe, the solve and, when sampling, the chooser's pick. It
// returns nil when the chain is unsatisfiable in this order.
func (q *QDB) solveForGround(v relstore.View, solver []*txn.T, maximize bool) (*formula.ChainSolution, error) {
	sample := q.opt.sample()
	// Negative probe: a solver-view sequence (up to renaming) proven
	// unsatisfiable at these store epochs fails again without solving —
	// this answers repeated failed reorder and coordination attempts by
	// cache probe. The view holds writers off, so the fingerprint and the
	// solve observe the same state.
	negKey := solveKey(solver, maximize, sample, 0)
	negFP := epochFingerprint(v, solver)
	if q.rejects.hit(negKey, negFP) {
		q.stats.negHits.Add(1)
		return nil, nil
	}
	var (
		sols []*formula.ChainSolution
		err  error
	)
	if sample > 1 {
		// Candidates must differ in the grounding of the collapse target
		// (the chain head) for the chooser to have a real choice.
		sols, err = formula.SolveChainVaryingFirst(v, solver, q.chainOpts(maximize), sample)
	} else {
		sols, err = formula.SolveChainN(v, solver, q.chainOpts(maximize), 1)
	}
	if err != nil {
		return nil, err
	}
	if len(sols) == 0 {
		q.rejects.add(negKey, negFP)
		return nil, nil
	}
	pick := 0
	if len(sols) > 1 {
		cands := make([]formula.Grounding, len(sols))
		for i, s := range sols {
			cands[i] = s.Groundings[0]
		}
		pick = q.opt.chooser()(cands, v)
		if pick < 0 || pick >= len(sols) {
			pick = 0
		}
	}
	return sols[pick], nil
}

// GroundCoordinated collapses the pending transaction id only if a
// grounding satisfying ALL its optional atoms exists (they are tried as
// hard constraints); otherwise it is a no-op and reports false. Used on
// entangled-partner arrival when the partner was already executed —
// deferral can no longer improve coordination, it can only lose the
// adjacent resource. Semantic mode tries only the reordered grounding: a
// strict fallback would ground earlier transactions the caller did not
// ask to collapse, for a coordination that is merely hoped for.
func (q *QDB) GroundCoordinated(id int64) (bool, error) {
	if err := q.checkWritable(); err != nil {
		return false, err
	}
	ps, err := q.lockGroup([]int64{id}, make([]*partition, 0, 1))
	if err != nil {
		return false, err
	}
	p := ps[0]
	defer p.shard.Unlock()
	idx := slices.IndexFunc(p.txns, func(t *txn.T) bool { return t.ID == id })
	sp := q.met.ground.Start()
	defer sp.End()
	semantic := q.opt.Mode == Semantic
	done, err := q.tryAttempts(p, []int{idx}, semantic, coordinatedAttempts, &sp)
	if done && semantic {
		q.stats.semanticReorders.Add(1)
	}
	return done, err
}

// GroundGroup collapses a set of pending transactions together: an
// entangled pair (§5.1, Coordinator) is a group of two, and larger groups
// are the N-party coordination of the enmeshed-queries direction the
// paper cites. Members are ordered by arrival; each later member's
// optional atoms can unify with earlier members' pending inserts, so the
// first attempt hardens every member after the first and the solver
// backtracks over earlier choices until the group coordinates. If no
// coordinated grounding exists the group collapses with optionals merely
// maximized. A repeated ID names its transaction once.
//
// Members in other partitions cannot interact; each partition's members
// collapse on their own, a lone member with Ground's attempts.
// Member partitions are locked together in canonical shard order and
// processed ascending by partition ID.
func (q *QDB) GroundGroup(ids []int64) error {
	if err := q.checkWritable(); err != nil {
		return err
	}
	// Pairs are the hot collapse: the small buffers here stay on the stack.
	ids = append(make([]int64, 0, 4), ids...)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	ps, err := q.lockGroup(ids, make([]*partition, 0, 4))
	if err != nil {
		return err
	}
	defer unlockPartitions(ps)
	for _, p := range ps {
		pos := make([]int, 0, 4)
		for i, t := range p.txns {
			if slices.Contains(ids, t.ID) {
				pos = append(pos, i)
			}
		}
		attempts := groupAttempts
		if len(pos) == 1 {
			attempts = groundAttempts
		}
		if err := q.collapseLocked(p, pos, attempts); err != nil {
			return err
		}
	}
	return nil
}

// lockGroup locks the partitions holding the given pending transactions
// (sched.LockOrdered) and returns them ascending by ID in buf: the one
// locator by pending IDs (lockCandidates is the one by atoms). It retries,
// counted in LockWaits, when a merge or collapse re-homes a member
// between lookup and lock; ErrUnknownTxn when a member is not pending.
func (q *QDB) lockGroup(ids []int64, buf []*partition) ([]*partition, error) {
	shards := make([]*sched.Shard, 0, 4)
	for {
		ps := buf[:0]
		q.mu.Lock()
		for _, id := range ids {
			p := q.byTxn[id]
			if p == nil {
				q.mu.Unlock()
				return nil, fmt.Errorf("%w: %d", ErrUnknownTxn, id)
			}
			if !slices.Contains(ps, p) {
				ps = append(ps, p)
			}
		}
		q.mu.Unlock()
		slices.SortFunc(ps, func(a, b *partition) int { return cmp.Compare(a.id(), b.id()) })
		locked := sched.LockOrdered(shardsOf(shards[:0], ps))
		ok := true
		q.mu.Lock()
		for _, id := range ids {
			ok = ok && slices.Contains(ps, q.byTxn[id])
		}
		q.mu.Unlock()
		for _, p := range ps {
			ok = ok && p.shard.Alive()
		}
		if ok {
			return ps, nil
		}
		sched.UnlockAll(locked)
		q.stats.lockWaits.Add(1)
	}
}

// Read evaluates a conjunctive query against the quantum database,
// collapsing first: any pending transaction whose update portion unifies
// with a query atom is grounded (the conservative criterion of §3.2.2),
// then the query runs on the now-extensional relevant state. Reads are
// repeatable: the returned values are fixed in the store.
//
// Affected partitions are collapsed in parallel on the worker pool; the
// final evaluation runs on a snapshot pinned while the overlapping
// partitions are locked, so a transaction admitted mid-read stays pending
// (the read linearizes before it) and the result set is cut at a single
// store state. The collapse is bounded to transactions pending when the
// read arrived: a transaction admitted after that is not collapsed by
// it, so a sustained stream of overlapping admissions cannot starve the
// read. The result is a columnar row set, as for QueryAt.
func (q *QDB) Read(query []logic.Atom) (*relstore.RowSet, error) {
	// Collapsing reads mutate (they may force groundings), so a demoted
	// leader refuses them too; snapshot reads (Snapshot/QueryAt)
	// remain available — the demoted engine is exactly a follower.
	if err := q.checkWritable(); err != nil {
		return nil, err
	}
	q.stats.reads.Add(1)
	sp := q.met.read.Start()
	defer sp.End()
	q.mu.Lock()
	maxID := q.nextID - 1
	q.mu.Unlock()
	for {
		ps := q.lockCandidates(query)
		var affected []*partition
		for _, p := range ps {
			if partitionAffected(p, query, maxID) >= 0 {
				affected = append(affected, p)
			}
		}
		if len(affected) == 0 {
			// No pending transaction the read must observe can touch the
			// query: pin a snapshot (while the candidate partitions are
			// still locked, so no affected grounding can slip between the
			// check and the pin), then release everything and evaluate
			// lock-free — a long read never stalls appliers, and appliers
			// never stall it.
			snap := q.db.Snapshot()
			unlockPartitions(ps)
			q.stats.snapshotReads.Add(1)
			rq := relstore.Query{Atoms: query, Planner: q.opt.Planner}
			evalStart := time.Now()
			rows, err := rq.Rows(snap)
			sp.Add(stageReadEval, time.Since(evalStart))
			snap.Release()
			return rows, err
		}
		collapseStart := time.Now()
		err := q.pool.Map(len(affected), func(i int) error {
			p := affected[i] // pre-locked by this goroutine; task takes no shard
			q.stats.parallelSolves.Add(1)
			for {
				idx := partitionAffected(p, query, maxID)
				if idx < 0 {
					return nil
				}
				q.stats.forcedByRead.Add(1)
				if err := q.groundLocked(p, idx); err != nil {
					return err
				}
			}
		})
		sp.Add(stageReadCollapse, time.Since(collapseStart))
		unlockPartitions(ps)
		if err != nil {
			return nil, err
		}
	}
}

// PreviewRead reports the IDs of pending transactions the given read
// query would force to ground, WITHOUT collapsing anything. §3.2.2
// suggests exactly this feedback loop: "the programmer is provided more
// explicit feedback before issuing a read on the potential
// 'consequences' of that read on the possible worlds". Note the preview
// is conservative and momentary — by the time the read is issued, more
// transactions may have arrived.
func (q *QDB) PreviewRead(query []logic.Atom) []int64 {
	ps := q.lockCandidates(query)
	var ids []int64
	for _, p := range ps {
		for _, t := range p.txns {
			if txnAffected(t, query) {
				ids = append(ids, t.ID)
			}
		}
	}
	unlockPartitions(ps)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// txnAffected reports whether any update atom of t unifies with a query
// atom.
func txnAffected(t *txn.T, query []logic.Atom) bool {
	for _, u := range t.Update {
		for _, a := range query {
			if logic.Unifiable(a, u.Atom) {
				return true
			}
		}
	}
	return false
}

// partitionAffected returns the position of the lowest-ID transaction in
// p (no newer than maxID) whose update portion unifies with a query
// atom, or -1. Caller holds p's shard.
func partitionAffected(p *partition, query []logic.Atom, maxID int64) int {
	for i, t := range p.txns {
		if t.ID > maxID {
			return -1 // txns ascend by ID; the rest postdate the read
		}
		if txnAffected(t, query) {
			return i
		}
	}
	return -1
}

// Write applies a non-resource blind write (a batch of ground inserts and
// deletes). Writes that unify with pending bodies must keep every
// affected partition satisfiable over the modified store, or they are
// rejected (§3.2.2 "Writes").
//
// A write is a member of the one admission routine (admit.go) that
// carries facts and admits no transaction: decided under its cycle's
// shards outside admitMu, validated, logged in the cycle's batch,
// and applied after its wait, holding its home — the survivor of its
// overlap set, or a fresh partition — with its key atoms (keyAtoms)
// filed there. Whatever depends on the write — an admission, a
// collapsing read, a later write on a key it writes, the checkpoint cut
// — blocks on the home, as on an admission's survivor (publish).
func (q *QDB) Write(inserts, deletes []relstore.GroundFact) error {
	if err := q.checkWritable(); err != nil {
		return err
	}
	atoms := make([]logic.Atom, 0, len(inserts)+len(deletes))
	for _, f := range inserts {
		atoms = append(atoms, factAtom(f))
	}
	for _, f := range deletes {
		atoms = append(atoms, factAtom(f))
	}
	var errs [1]error
	sp := q.met.write.Start()
	q.admit([]batchItem{{inserts: inserts, deletes: deletes, atoms: atoms}}, nil, errs[:], &sp)
	sp.End()
	if errs[0] == nil {
		q.stats.writesAccepted.Add(1)
	}
	return errs[0]
}

// keyAtoms returns each fact's key atom: its key columns as constants,
// every other column a variable (the whole fact for a nil Key), so a
// later write on the same key finds an in-flight write's home.
func keyAtoms(src relstore.Source, facts []logic.Atom) []logic.Atom {
	out := make([]logic.Atom, len(facts))
	for i, a := range facts {
		s, _ := src.SchemaOf(a.Rel)
		if s.Key == nil {
			out[i] = a
			continue
		}
		args := make([]logic.Term, len(a.Args))
		for j := range args {
			args[j] = logic.Var(s.Columns[j])
		}
		for _, j := range s.Key {
			args[j] = a.Args[j]
		}
		out[i] = logic.NewAtom(a.Rel, args...)
	}
	return out
}

// unfileKeys files a write's key atoms out of its home in the overlap
// index, where installLocked filed them. Caller holds the home's shard.
func (q *QDB) unfileKeys(keys []logic.Atom, home *partition) {
	if len(keys) == 0 {
		return
	}
	q.mu.Lock()
	for _, a := range keys {
		q.idx.updateAtom(a, home.id(), -1)
	}
	q.mu.Unlock()
}

func factAtom(f relstore.GroundFact) logic.Atom {
	args := make([]logic.Term, len(f.Tuple))
	for i, v := range f.Tuple {
		args[i] = logic.Const(v)
	}
	return logic.NewAtom(f.Rel, args...)
}
