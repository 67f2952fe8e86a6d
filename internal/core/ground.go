package core

import (
	"errors"
	"fmt"
	"sort"
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
// parallel.
func (q *QDB) Ground(id int64) error {
	if err := q.checkWritable(); err != nil {
		return err
	}
	p, idx, err := q.lockTxn(id)
	if err != nil {
		return err
	}
	defer p.shard.Unlock()
	return q.groundLocked(p, idx)
}

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
			for len(p.txns) > 0 {
				if err := q.groundLocked(p, 0); err != nil {
					return err
				}
			}
			return nil
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
			// always makes progress.
			p, idx, err := q.lockTxn(oldest)
			if err != nil {
				if errors.Is(err, ErrUnknownTxn) {
					continue // grounded concurrently; re-examine
				}
				return err
			}
			err = q.groundLocked(p, idx)
			p.shard.Unlock()
			if err != nil {
				return err
			}
		}
	}
}

// groundLocked collapses p.txns[idx]. Caller holds p's shard. Semantic
// mode first tries to move the target to the front of the pending order,
// grounding only it, when the reordered chain stays satisfiable. The
// prefix path (always used under Strict, and as the semantic fallback)
// grounds the prefix up to and including the target in arrival order —
// replaying the partition's cached solution head by head where it is
// fresh (a cache probe per head, no solve; see replayHead) and solving
// only the remaining suffix.
func (q *QDB) groundLocked(p *partition, idx int) error {
	sp := q.met.ground.Start()
	defer sp.End()
	if q.opt.Mode == Semantic && idx > 0 {
		ok, err := q.trySolveAndApply(p, moveToFront(idx, len(p.txns)), semanticSolver(p, idx), 1, &sp)
		if err != nil {
			return err
		}
		if ok {
			q.stats.semanticReorders.Add(1)
			return nil
		}
		q.stats.semanticFallbacks.Add(1)
	}
	// Prefix grounding proceeds head-first, so drain replayable heads
	// before solving: each replay is exactly the grounding the strict
	// chain would assign that head, and only the suffix the cache cannot
	// cover (optional atoms, staleness, chooser sampling) pays a solve.
	for idx > 0 {
		done, err := q.replayHead(p, &sp)
		if err != nil {
			return err
		}
		if !done {
			break
		}
		idx--
	}
	if idx == 0 {
		done, err := q.replayHead(p, &sp)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
	// Strict path: ground arrival-order prefix 0..idx.
	order := identityOrder(len(p.txns))
	solver := make([]*txn.T, len(p.txns))
	for i, t := range p.txns {
		if i <= idx {
			solver[i] = t // optionals maximized at grounding time
		} else {
			solver[i] = strip(t)
		}
	}
	ok, err := q.trySolveAndApply(p, order, solver, idx+1, &sp)
	if err != nil {
		return err
	}
	if !ok {
		return ErrInvariantBroken
	}
	return nil
}

// replayHead grounds p.txns[0] by replaying the partition's cached
// consistent grounding instead of solving: the engine is the store's
// only writer and keeps the cached solution aligned on every write that
// could affect it, so its head grounding is still consistent and can
// execute directly. This is the cross-solve solution cache's hit path —
// a GroundAll drain or k-bound eviction of an unchanged partition
// performs zero solver work after admission.
//
// Replay declines (returns false, letting the solve paths run) when the
// head has optional atoms (grounding maximizes them; the cached solution
// was solved over stripped views), when a chooser wants candidates to
// pick from, or when the cache is disabled or unaligned. Caller holds
// p's shard.
func (q *QDB) replayHead(p *partition, sp *telemetry.Span) (bool, error) {
	if q.opt.DisableCache || q.opt.sample() > 1 {
		return false, nil
	}
	if len(p.txns) == 0 || len(p.cached) != len(p.txns) {
		return false, nil
	}
	if len(p.txns[0].OptionalAtoms()) > 0 {
		return false, nil
	}
	g := p.cached[0]
	// Write-ahead ordering: log+sync the batch OUTSIDE the store gate (so
	// replays of partitions on different WAL segments fsync concurrently
	// and ones sharing a segment group-commit), then apply under the
	// exclusive side. Only groundings of OTHER partitions, which cannot
	// unify with this one and so commute with its grounding, can land in
	// between.
	walStart := time.Now()
	seq, err := q.logGrounding(p.id(), g)
	sp.Add(stageGroundWAL, time.Since(walStart))
	if err != nil {
		return false, err
	}
	if err := q.crashApplyPoint(); err != nil {
		return false, err
	}

	applyStart := time.Now()
	q.storeMu.Lock()
	if err := q.w.Apply(g.Inserts, g.Deletes); err != nil {
		// The grounding no longer applies (a key collision with a
		// commuting engine write). Drop the cache and fall back to a
		// fresh solve; Apply is atomic, so the store is unchanged — but
		// the batch is already logged, so it must be compensated.
		q.storeMu.Unlock()
		q.stats.solutionStale.Add(1)
		p.cached = nil
		p.version++
		return false, q.logAbort(p.id(), seq)
	}
	q.storeMu.Unlock()
	sp.Add(stageGroundApply, time.Since(applyStart))
	q.stats.grounded.Add(1)
	q.stats.solutionReplays.Add(1)

	head := p.txns[0]
	q.mu.Lock()
	delete(q.byTxn, head.ID)
	q.idx.remove(head, p.id())
	q.mu.Unlock()
	q.prep.Evict(head)
	p.txns = p.txns[1:]
	// The tail was solved over the store state that now includes the
	// replayed head's updates (chain property), so it remains the
	// partition's cached solution.
	p.cached = p.cached[1:]
	p.version++
	if len(p.txns) == 0 {
		q.mu.Lock()
		delete(q.parts, p.id())
		q.mu.Unlock()
		p.shard.Retire()
		q.partVersion.Add(1)
	}
	return true, nil
}

// semanticSolver builds the solver view for a move-to-front grounding of
// p.txns[idx]: the target keeps its optional atoms (maximized), the rest
// are stripped.
func semanticSolver(p *partition, idx int) []*txn.T {
	out := make([]*txn.T, 0, len(p.txns))
	out = append(out, p.txns[idx])
	for i, t := range p.txns {
		if i != idx {
			out = append(out, strip(t))
		}
	}
	return out
}

// moveToFront returns the permutation [idx, 0, 1, …] over n positions.
func moveToFront(idx, n int) []int {
	order := make([]int, 0, n)
	order = append(order, idx)
	for i := 0; i < n; i++ {
		if i != idx {
			order = append(order, i)
		}
	}
	return order
}

func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// trySolveAndApply solves the partition's chain in the given order (a
// permutation of partition positions) using the solver views, and on
// success executes the first groundCount groundings against the store,
// removing those transactions and caching the rest. Returns ok=false when
// the chain is unsatisfiable in this order.
//
// Caller holds p's shard. The solve runs under the store's read gate
// (storeMu.RLock) — solves of independent partitions still overlap, and
// holding the gate guarantees no store writer queues mid-solve, which
// would deadlock the evaluator's nested relstore read locks. Each
// grounding then logs write-ahead outside the store gate and applies
// under a short exclusive section of its own: reads see whole
// groundings, but a multi-transaction prefix is NOT atomic against
// reads — a read may observe the state between two groundings of the
// prefix, each of which is a real committed state.
func (q *QDB) trySolveAndApply(p *partition, order []int, solver []*txn.T, groundCount int, sp *telemetry.Span) (bool, error) {
	maximize := false
	for _, t := range solver[:groundCount] {
		if len(t.OptionalAtoms()) > 0 {
			maximize = true
			break
		}
	}
	sample := q.opt.sample()
	var (
		sols []*formula.ChainSolution
		err  error
	)
	solveStart := time.Now()
	q.storeMu.RLock()
	// Negative probe: a solver-view sequence (up to renaming) proven
	// unsatisfiable at these store epochs fails again without solving —
	// this answers repeated failed reorder and coordination attempts by
	// cache probe. The read gate freezes the epochs, so the fingerprint
	// and the solve observe the same state.
	useNeg := !q.opt.DisableCache
	var negKey, negFP uint64
	if useNeg {
		negKey = solveKey(solver, maximize, sample, 0)
		negFP = q.epochFingerprint(solver)
		if q.rejects.hit(negKey, negFP) {
			q.storeMu.RUnlock()
			q.stats.negHits.Add(1)
			sp.Add(stageGroundSolve, time.Since(solveStart))
			return false, nil
		}
	}
	if sample > 1 {
		// Candidates must differ in the grounding of the collapse target
		// (the chain head) for the chooser to have a real choice.
		sols, err = formula.SolveChainVaryingFirst(q.db, solver, q.chainOpts(maximize), sample)
	} else {
		sols, err = formula.SolveChainN(q.db, solver, q.chainOpts(maximize), 1)
	}
	if err != nil {
		q.storeMu.RUnlock()
		sp.Add(stageGroundSolve, time.Since(solveStart))
		return false, err
	}
	if len(sols) == 0 {
		if useNeg {
			q.rejects.add(negKey, negFP)
		}
		q.storeMu.RUnlock()
		sp.Add(stageGroundSolve, time.Since(solveStart))
		return false, nil
	}
	pick := 0
	if len(sols) > 1 {
		cands := make([]formula.Grounding, len(sols))
		for i, s := range sols {
			cands[i] = s.Groundings[0]
		}
		pick = q.opt.chooser()(cands, q.db)
		if pick < 0 || pick >= len(sols) {
			pick = 0
		}
	}
	q.storeMu.RUnlock()
	sp.Add(stageGroundSolve, time.Since(solveStart))
	sol := sols[pick]

	// Partition split: keep positions not in order[:groundCount].
	grounded := make(map[int]bool, groundCount)
	for _, pos := range order[:groundCount] {
		grounded[pos] = true
	}
	var rest []*txn.T
	var removed []*txn.T
	for i, t := range p.txns {
		if grounded[i] {
			removed = append(removed, t)
		} else {
			rest = append(rest, t)
		}
	}

	// Execute the chosen prefix against the store, one grounding — one
	// WAL batch — at a time, write-ahead: each grounding's batch (facts +
	// tombstone) is appended and, with SyncWAL, group-commit synced
	// OUTSIDE the store gate, and only then applied under the exclusive
	// side. Log sequence order stays consistent with apply order where it
	// matters: same-partition batches are strictly ordered (the next
	// append happens after the previous apply, under this shard), and
	// batches of other partitions commute with these groundings (their
	// atoms cannot unify; residual key collisions fail closed at Apply
	// and are compensated with an abort record). A crash between a
	// batch's sync and its apply is repaired by replay — the recovered
	// store includes the grounding the live store was about to get.
	//
	// A mid-prefix error (log or apply failure for grounding i > 0)
	// returns with groundings 0..i-1 applied and logged but their
	// transactions still registered pending — the seed's failure shape,
	// kept: log errors mean the engine is degraded and WAL recovery is
	// the story; restructuring per-grounding retirement for a path that
	// only runs on I/O failure is not worth the bookkeeping.
	for i := 0; i < groundCount; i++ {
		g := sol.Groundings[i]
		walStart := time.Now()
		seq, err := q.logGrounding(p.id(), g)
		sp.Add(stageGroundWAL, time.Since(walStart))
		if err != nil {
			return false, err
		}
		if err := q.crashApplyPoint(); err != nil {
			return false, err
		}
		applyStart := time.Now()
		q.storeMu.Lock()
		if err := q.w.Apply(g.Inserts, g.Deletes); err != nil {
			q.storeMu.Unlock()
			err = fmt.Errorf("core: executing grounding of txn %d: %w", g.Txn.ID, err)
			if aerr := q.logAbort(p.id(), seq); aerr != nil {
				err = errors.Join(err, aerr)
			}
			return false, err
		}
		q.storeMu.Unlock()
		sp.Add(stageGroundApply, time.Since(applyStart))
	}
	q.stats.grounded.Add(int64(groundCount))

	q.mu.Lock()
	for _, t := range removed {
		delete(q.byTxn, t.ID)
		q.idx.remove(t, p.id())
	}
	q.mu.Unlock()
	for _, t := range removed {
		q.prep.Evict(t)
	}
	p.txns = rest
	if q.opt.DisableCache {
		p.cached = nil
	} else {
		// Remaining groundings were solved over the store state that now
		// includes the executed prefix, but they are ordered by the solve
		// order; realign to ascending-ID partition order. For the orders
		// used here (identity or move-to-front) the tail is already in
		// partition order.
		p.cached = append([]formula.Grounding(nil), sol.Groundings[groundCount:]...)
	}
	p.version++
	if len(p.txns) == 0 {
		q.mu.Lock()
		delete(q.parts, p.id())
		q.mu.Unlock()
		p.shard.Retire()
		q.partVersion.Add(1)
	}
	return true, nil
}

// GroundCoordinated collapses the pending transaction id only if a
// grounding satisfying ALL its optional atoms exists (they are tried as
// hard constraints); otherwise it is a no-op. Used on entangled-partner
// arrival when the partner was already executed — deferral can no longer
// improve coordination, it can only lose the adjacent resource.
func (q *QDB) GroundCoordinated(id int64) (bool, error) {
	if err := q.checkWritable(); err != nil {
		return false, err
	}
	p, idx, err := q.lockTxn(id)
	if err != nil {
		return false, err
	}
	defer p.shard.Unlock()
	sp := q.met.ground.Start()
	defer sp.End()
	target := harden(p.txns[idx])
	if q.opt.Mode == Semantic {
		solver := make([]*txn.T, 0, len(p.txns))
		solver = append(solver, target)
		for i, t := range p.txns {
			if i != idx {
				solver = append(solver, strip(t))
			}
		}
		done, err := q.trySolveAndApply(p, moveToFront(idx, len(p.txns)), solver, 1, &sp)
		if err != nil {
			return false, err
		}
		if done {
			q.stats.semanticReorders.Add(1)
		}
		return done, nil
	}
	// Strict: the whole arrival-order prefix must ground.
	solver := make([]*txn.T, len(p.txns))
	for i, t := range p.txns {
		switch {
		case i == idx:
			solver[i] = target
		case i < idx:
			solver[i] = t
		default:
			solver[i] = strip(t)
		}
	}
	return q.trySolveAndApply(p, identityOrder(len(p.txns)), solver, idx+1, &sp)
}

// Read evaluates a conjunctive query against the quantum database,
// collapsing first: any pending transaction whose update portion unifies
// with a query atom is grounded (the conservative criterion of §3.2.2),
// then the query runs on the now-extensional relevant state. Reads are
// repeatable: the returned values are fixed in the store.
//
// Affected partitions are collapsed in parallel on the worker pool; the
// final evaluation holds the store's read gate, so a transaction admitted
// mid-read stays pending (the read linearizes before it) and the result
// set is cut at a single store state. The collapse is bounded to
// transactions pending when the read arrived: a transaction admitted
// after that linearizes after the read (its grounding cannot execute
// while the read gate is held), so a sustained stream of overlapping
// admissions cannot starve the read. The result is a columnar row set,
// as for QueryAt.
func (q *QDB) Read(query []logic.Atom) (*relstore.RowSet, error) {
	// Collapsing reads mutate (they may force groundings), so a demoted
	// leader refuses them too; snapshot reads (QueryAt/QuerySnapshot)
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
			// query: pin a snapshot under a brief gate acquisition (while
			// the candidate partitions are still locked, so no affected
			// grounding can slip between the check and the pin), then
			// release everything and evaluate entirely gate-free — a long
			// read never stalls appliers, and appliers never stall it.
			q.storeMu.RLock()
			snap := q.db.Snapshot()
			q.storeMu.RUnlock()
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
// rejected (§3.2.2 "Writes"). Validation solves of independent affected
// partitions run in parallel on the worker pool.
func (q *QDB) Write(inserts, deletes []relstore.GroundFact) error {
	if err := q.checkWritable(); err != nil {
		return err
	}
	factAtoms := make([]logic.Atom, 0, len(inserts)+len(deletes))
	for _, f := range inserts {
		factAtoms = append(factAtoms, factAtom(f))
	}
	for _, f := range deletes {
		factAtoms = append(factAtoms, factAtom(f))
	}

	q.admitMu.Lock()
	defer q.admitMu.Unlock()
	sp := q.met.write.Start()
	defer sp.End()

	// Structural validation of the write itself (arity, delete-of-absent,
	// duplicate keys) on a scratch overlay, under the store's read gate
	// (see trySolveAndApply for why solves hold it).
	q.storeMu.RLock()
	err := relstore.NewOverlay(q.db).ApplyFacts(inserts, deletes)
	q.storeMu.RUnlock()
	if err != nil {
		return fmt.Errorf("core: invalid write: %w", err)
	}

	// Under admitMu the candidate set can only shrink; lock candidates
	// and keep those the write actually touches.
	cands := q.lockOverlappingAtoms(factAtoms)
	var affected []*partition
	for _, p := range cands {
		if overlaps(p, factAtoms) {
			affected = append(affected, p)
		}
	}

	dk := deltaKey(inserts, deletes)
	refreshed := make([][]formula.Grounding, len(affected))
	sp.Mark()
	err = q.pool.Map(len(affected), func(i int) error {
		p := affected[i] // pre-locked; task takes no shard
		q.stats.parallelSolves.Add(1)
		// Overlays are single-goroutine; each validation builds its own.
		q.storeMu.RLock()
		defer q.storeMu.RUnlock()
		views := stripAll(p.txns)
		// Negative probe: this write was already proven to empty this
		// partition's possible worlds at these epochs — re-reject by
		// probe (a retried rejected write costs no solves).
		useNeg := !q.opt.DisableCache
		var negKey, negFP uint64
		if useNeg {
			negKey = solveKey(views, false, 1, dk)
			negFP = q.epochFingerprint(views)
			if q.rejects.hit(negKey, negFP) {
				q.stats.negHits.Add(1)
				return ErrWriteRejected
			}
		}
		ov := relstore.NewOverlay(q.db)
		if err := ov.ApplyFacts(inserts, deletes); err != nil {
			return fmt.Errorf("core: invalid write: %w", err)
		}
		sol, ok, err := formula.SolveChain(ov, views, q.chainOpts(false))
		if err != nil {
			return err
		}
		if !ok {
			if useNeg {
				q.rejects.add(negKey, negFP)
			}
			return ErrWriteRejected
		}
		refreshed[i] = sol.Groundings
		return nil
	})
	sp.Stage(stageWriteValidate)
	if err != nil {
		unlockPartitions(cands)
		if errors.Is(err, ErrWriteRejected) {
			q.stats.writesRejected.Add(1)
			return ErrWriteRejected
		}
		return err
	}

	// Write-ahead: the write's batch is logged (and synced, with SyncWAL)
	// before it mutates the store — still under admitMu, so it is
	// serialized against admissions exactly as before, but outside the
	// store gate, so groundings of unaffected partitions proceed during
	// the fsync.
	walStart := time.Now()
	seq, err := q.logWrite(inserts, deletes)
	sp.Add(stageWriteWAL, time.Since(walStart))
	if err != nil {
		unlockPartitions(cands)
		return err
	}
	if err := q.crashApplyPoint(); err != nil {
		unlockPartitions(cands)
		return err
	}
	applyStart := time.Now()
	q.storeMu.Lock()
	if err := q.w.Apply(inserts, deletes); err != nil {
		q.storeMu.Unlock()
		unlockPartitions(cands)
		err = fmt.Errorf("core: applying write: %w", err)
		if aerr := q.logAbort(0, seq); aerr != nil {
			err = errors.Join(err, aerr)
		}
		return err
	}
	// Blind writes are the one engine mutation optimistic admission can
	// never attribute to a non-overlapping partition; the sequence number
	// lets validations detect that one landed mid-speculation.
	q.writeSeq.Add(1)
	q.storeMu.Unlock()
	sp.Add(stageWriteApply, time.Since(applyStart))
	for i, p := range affected {
		if !q.opt.DisableCache {
			// Refreshed solutions were validated over the store plus this
			// write, which is now the store, so grounding can replay them.
			p.cached = refreshed[i]
		}
		// Either way the partition's solve-relevant state moved: any
		// in-flight admission speculation over it must conflict.
		p.version++
	}
	unlockPartitions(cands)
	q.stats.writesAccepted.Add(1)
	return nil
}

func factAtom(f relstore.GroundFact) logic.Atom {
	args := make([]logic.Term, len(f.Tuple))
	for i, v := range f.Tuple {
		args[i] = logic.Const(v)
	}
	return logic.NewAtom(f.Rel, args...)
}

// GroundPair collapses two pending entangled transactions together
// (§5.1): the later partner's optional atoms — its forward coordination
// constraints, which can unify with the earlier partner's pending inserts —
// are first tried as hard constraints, so the solver backtracks over the
// earlier partner's grounding until coordination succeeds; only if no
// coordinated grounding exists does the pair collapse uncoordinated.
func (q *QDB) GroundPair(id1, id2 int64) error {
	if err := q.checkWritable(); err != nil {
		return err
	}
	pa, ia, pb, ib, err := q.lockPair(id1, id2)
	if err != nil {
		return err
	}
	if pa != pb {
		// Independent transactions cannot coordinate; collapse each.
		defer pa.shard.Unlock()
		defer pb.shard.Unlock()
		if err := q.groundLocked(pa, ia); err != nil {
			return err
		}
		return q.groundLocked(pb, ib)
	}
	p := pa
	defer p.shard.Unlock()
	sp := q.met.ground.Start()
	defer sp.End()
	if p.txns[ia].ID > p.txns[ib].ID {
		ia, ib = ib, ia
	}
	first, second := p.txns[ia], p.txns[ib]

	var done bool
	if q.opt.Mode == Semantic {
		order := pairFirstOrder(ia, ib, len(p.txns))
		// Coordinated attempt: harden the later partner's optionals.
		solver := pairSolver(p, ia, ib, strip(first), harden(second))
		done, err = q.trySolveAndApply(p, order, solver, 2, &sp)
		if err != nil {
			return err
		}
		if !done {
			// Uncoordinated: maximize both partners' optionals instead.
			solver = pairSolver(p, ia, ib, first, second)
			done, err = q.trySolveAndApply(p, order, solver, 2, &sp)
			if err != nil {
				return err
			}
		}
		if done {
			q.stats.semanticReorders.Add(1)
			return nil
		}
		q.stats.semanticFallbacks.Add(1)
	}
	// Strict fallback: ground the arrival-order prefix through the later
	// partner, with the coordinated attempt first.
	order := identityOrder(len(p.txns))
	build := func(secondView *txn.T) []*txn.T {
		solver := make([]*txn.T, len(p.txns))
		for i, t := range p.txns {
			switch {
			case i == ib:
				solver[i] = secondView
			case i <= ib:
				solver[i] = t
			default:
				solver[i] = strip(t)
			}
		}
		return solver
	}
	done, err = q.trySolveAndApply(p, order, build(harden(second)), ib+1, &sp)
	if err != nil {
		return err
	}
	if !done {
		done, err = q.trySolveAndApply(p, order, build(second), ib+1, &sp)
		if err != nil {
			return err
		}
	}
	if !done {
		return ErrInvariantBroken
	}
	return nil
}

// lockPair locks the partition(s) holding two pending transactions in
// canonical shard order, retrying on stale acquires (merges can re-home
// either transaction between lookup and lock).
func (q *QDB) lockPair(id1, id2 int64) (pa *partition, ia int, pb *partition, ib int, err error) {
	for {
		q.mu.Lock()
		pa, pb = q.byTxn[id1], q.byTxn[id2]
		q.mu.Unlock()
		if pa == nil {
			return nil, 0, nil, 0, fmt.Errorf("%w: %d", ErrUnknownTxn, id1)
		}
		if pb == nil {
			return nil, 0, nil, 0, fmt.Errorf("%w: %d", ErrUnknownTxn, id2)
		}
		locked := sched.LockOrdered([]*sched.Shard{pa.shard, pb.shard})
		q.mu.Lock()
		stillA, stillB := q.byTxn[id1] == pa, q.byTxn[id2] == pb
		q.mu.Unlock()
		if pa.shard.Alive() && pb.shard.Alive() && stillA && stillB {
			ia, ib = txnPos(pa, id1), txnPos(pb, id2)
			if ia >= 0 && ib >= 0 {
				return pa, ia, pb, ib, nil
			}
		}
		sched.UnlockAll(locked)
		q.stats.lockWaits.Add(1)
	}
}

// txnPos returns the position of id in p.txns, or -1. Caller holds p's
// shard.
func txnPos(p *partition, id int64) int {
	for i, t := range p.txns {
		if t.ID == id {
			return i
		}
	}
	return -1
}

// pairFirstOrder permutes partition positions so ia then ib come first.
func pairFirstOrder(ia, ib, n int) []int {
	order := make([]int, 0, n)
	order = append(order, ia, ib)
	for i := 0; i < n; i++ {
		if i != ia && i != ib {
			order = append(order, i)
		}
	}
	return order
}

// pairSolver builds the solver view matching pairFirstOrder: the two
// partner views first, all other transactions stripped.
func pairSolver(p *partition, ia, ib int, firstView, secondView *txn.T) []*txn.T {
	out := make([]*txn.T, 0, len(p.txns))
	out = append(out, firstView, secondView)
	for i, t := range p.txns {
		if i != ia && i != ib {
			out = append(out, strip(t))
		}
	}
	return out
}
