package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/formula"
	"repro/internal/telemetry"
	"repro/internal/txn"
)

// This file implements admission — ONE routine behind both Submit (a
// batch of one) and SubmitBatch. Each cycle runs the decision procedure
// (decideBatch, batch.go) over a snapshot of the partitions the batch
// overlaps, then publishes every member's outcome in one critical
// section under admitMu. By default the chain solve — the dominant cost
// of the whole hot path — runs OUTSIDE the admission lock, so concurrent
// clients whose transactions touch disjoint partitions admit in parallel
// instead of serializing. The optimistic protocol is snapshot /
// speculate / validate+publish:
//
//  1. Snapshot: resolve the partitions the batch overlaps (without
//     admitMu — lockCandidates validates set stability and the final say
//     belongs to step 3) and record, per partition, the pending chain,
//     the cached solution, and the partition's version counter; plus the database-wide partition-set version and
//     admission sequence. The counters are read BEFORE the index walk and
//     bumped by installers AFTER publication, so counter equality later
//     proves the snapshot missed no install.
//  2. Speculate: on the scheduler pool (one worker slot per cycle,
//     bounding concurrent solves machine-wide), through one store view
//     (QDB.view), decide each member in ID order — negative-cache probe,
//     solution-extension fast path, or full composed-body solve — over a
//     chain that grows with each accepted member, against immutable
//     inputs: *txn.T values are never mutated once published and
//     partition slices are replaced, not written in place, so the
//     snapshot needs no copies.
//  3. Validate + publish: re-enter admitMu, re-lock the overlap set, and
//     check it is EXACTLY the snapshot (same partitions at the same
//     versions — a new overlapping partition, a merge, a grounding, or a
//     cache refresh all change it), then check the store: the epoch
//     fingerprint of the whole would-be chain's relations must equal the
//     speculation's (bit-identical tables ⇒ every decision reproduces),
//     OR every store mutation since must provably come from groundings
//     of NON-overlapping partitions (no blind writes, no admission
//     installs — the engine is the store's only writer), which cannot
//     unify with the batch's atoms and so can neither create nor destroy
//     its groundings. On success every
//     outcome — accepts and rejections alike, both are user-visible
//     decisions — is published; on conflict the whole cycle retries, and
//     after maxAdmitAttempts conflicts the call falls back to serial
//     admission, which cannot conflict.
//
// Serial admission is a mode of the same routine, used for
// Options.SerialAdmission and the conflict fallback. It admits the
// members one at a time, holding admitMu from overlap resolution through
// publish, so the partition set cannot move under the solve and nothing
// needs revalidating.
//
// Stats: every cycle bumps CacheHits or CacheMisses per solved member,
// NegativeHits per probe-answered rejection, Accepted/Rejected per
// outcome. Optimistic cycles add ParallelSolves (one per cycle),
// OptimisticAdmissions (per member of a validated cycle) and
// AdmissionConflicts; a conflict then counts AdmissionRetries or, once
// the budget is spent, SerialFallbacks (so conflicts = retries +
// fallbacks). Serial cycles add none of those.
//
// The same key-collision caveat the sharded scheduler already accepts
// applies here: "independent" partitions can still collide on update
// keys of shared tables; Apply fails closed on such collisions, exactly
// as it does for parallel grounding.

// maxAdmitAttempts bounds optimistic cycles per call; after the last
// conflict the members admit serially, so a contended partition
// degrades to the classic discipline instead of livelocking.
const maxAdmitAttempts = 3

// admitSnap freezes everything a cycle's decisions depend on.
type admitSnap struct {
	partVersion uint64
	admitSeq    uint64
	parts       []partSnap
	// base is the snapshot partitions' pending chain alone and merged is
	// base plus the whole batch, both ascending by ID: decideBatch grows
	// its chain from base as members are accepted, while merged remains
	// the validation basis.
	base, merged []*txn.T
}

// partSnap freezes one overlapping partition. txns/cached alias the
// partition's slices — safe because the engine replaces those slices on
// every mutation (and bumps version) rather than writing them in place.
type partSnap struct {
	p       *partition
	version uint64
	txns    []*txn.T
	cached  []formula.Grounding
}

// admit decides and publishes items, filling ids and errs at each
// member's idx: optimistic cycles while they validate, serial ones when
// the options ask for it or the conflict budget is spent.
func (q *QDB) admit(items []batchItem, ids []int64, errs []error, sp *telemetry.Span) {
	if !q.opt.SerialAdmission {
		for attempt := 0; attempt < maxAdmitAttempts; attempt++ {
			if q.admitCycle(items, false, ids, errs, sp) {
				return
			}
			q.stats.admissionConflicts.Add(1)
			if attempt+1 < maxAdmitAttempts {
				q.stats.admissionRetries.Add(1)
			}
		}
		q.stats.serialFallbacks.Add(1)
	}
	for i := range items {
		q.admitCycle(items[i:i+1], true, ids, errs, sp)
	}
}

// admitCycle runs one snapshot → decide → publish cycle over items and
// reports whether it published. A serial cycle (one member) holds
// admitMu throughout and always publishes; an optimistic one speculates
// outside it and returns false, having published nothing, when its
// snapshot went stale.
func (q *QDB) admitCycle(items []batchItem, serial bool, ids []int64, errs []error, sp *telemetry.Span) bool {
	sp.Mark()
	var snap *admitSnap
	var locked []*partition
	if serial {
		q.admitMu.Lock()
		locked = q.lockOverlapping(items[0].admitted)
		snap = buildSnapBatch(locked, items)
	} else {
		snap = q.snapshotOverlapBatch(items)
	}
	sp.Stage(stageSubmitSnapshot)
	out := &batchOutcome{}
	var err error
	if serial {
		err = q.decideBatch(snap, items, out)
	} else {
		err = q.pool.Run(func() error {
			q.stats.parallelSolves.Add(1)
			return q.decideBatch(snap, items, out)
		})
	}
	sp.Stage(stageSubmitSolve)
	if err != nil {
		if serial {
			unlockPartitions(locked)
			q.admitMu.Unlock()
		}
		for _, it := range items {
			errs[it.idx] = err
		}
		return true
	}
	if !serial {
		q.admitMu.Lock()
		var ok bool
		locked, ok = q.revalidateBatch(snap, items, out)
		sp.Stage(stageSubmitValidate)
		if !ok {
			q.admitMu.Unlock()
			return false
		}
		q.stats.optimisticAdmissions.Add(int64(len(items)))
	}
	q.publish(items, locked, out, sp, ids, errs)
	return true
}

// snapshotOverlapBatch resolves and freezes the partitions the batch
// overlaps, over the union of its atoms: merging every member's overlap
// set into one snapshot is the batch's tentative partition merge —
// coarser than n individual merges would be only when members are
// mutually disjoint, and a coarser partitioning is always correct (it
// can only force more serialization, never miss a dependency).
func (q *QDB) snapshotOverlapBatch(items []batchItem) *admitSnap {
	// Counters first, index second: installs publish to the index before
	// bumping, so if the counters are still equal at validation, every
	// install is either in this snapshot or did not happen.
	partVersion := q.partVersion.Load()
	admitSeq := q.admitSeq.Load()
	// One pass over the index's candidates, without lockCandidates'
	// stability validation: a candidate that appears mid-walk (a
	// concurrent install) is exactly what revalidateBatch exists to
	// catch, so the snapshot may be cheerfully stale — it must only be
	// internally consistent, which the shard locks give per partition.
	atoms := batchAtoms(items)
	ps := q.candidateSnapshot(atoms)
	locked := ps[:0]
	for _, p := range ps {
		p.shard.Lock()
		if !p.shard.Alive() {
			p.shard.Unlock()
			continue
		}
		if len(p.txns) == 0 || !overlaps(p, atoms) {
			p.shard.Unlock()
			continue
		}
		locked = append(locked, p)
	}
	snap := buildSnapBatch(locked, items)
	unlockPartitions(locked)
	snap.partVersion, snap.admitSeq = partVersion, admitSeq
	return snap
}

// buildSnapBatch freezes an overlap set the caller has locked (live
// partitions in a serial cycle, a moment-in-time set in an optimistic
// one) and assembles base and merged. A concurrent admission can install
// an ID above the batch's between our ID assignment and this snapshot,
// so merged is sorted rather than assumed append-ordered. Counters are
// the caller's concern: a serial cycle never validates, so it leaves
// them zero.
func buildSnapBatch(ps []*partition, items []batchItem) *admitSnap {
	snap := &admitSnap{}
	n := 0
	for _, p := range ps {
		snap.parts = append(snap.parts, partSnap{
			p: p, version: p.version,
			txns: p.txns, cached: p.cached,
		})
		n += len(p.txns)
	}
	snap.base = make([]*txn.T, 0, n)
	for _, s := range snap.parts {
		snap.base = append(snap.base, s.txns...)
	}
	sort.Slice(snap.base, func(i, j int) bool { return snap.base[i].ID < snap.base[j].ID })
	snap.merged = make([]*txn.T, 0, n+len(items))
	snap.merged = append(snap.merged, snap.base...)
	for _, it := range items {
		snap.merged = append(snap.merged, it.admitted)
	}
	sort.Slice(snap.merged, func(i, j int) bool { return snap.merged[i].ID < snap.merged[j].ID })
	return snap
}

// revalidateBatch re-checks an optimistic snapshot under admitMu (the
// caller holds it). First the partitions: fast path, admitMu excludes
// installs, so if no install (or create/merge/retire) has happened since
// the snapshot — partVersion unchanged — no partition can have gained
// atoms, and locking the snapshot set and checking versions suffices;
// otherwise the overlap set is resolved from scratch and compared. Then
// the store. On success the overlap set is returned locked (ascending
// ID); on failure everything is released.
func (q *QDB) revalidateBatch(snap *admitSnap, items []batchItem, out *batchOutcome) ([]*partition, bool) {
	var locked []*partition
	if q.partVersion.Load() == snap.partVersion {
		locked = make([]*partition, 0, len(snap.parts))
		for _, s := range snap.parts {
			s.p.shard.Lock()
			locked = append(locked, s.p)
			if !s.p.shard.Alive() || s.p.version != s.version {
				unlockPartitions(locked)
				return nil, false
			}
		}
	} else {
		atoms := batchAtoms(items)
		cands := q.lockOverlappingAtoms(atoms)
		locked = cands[:0]
		for _, p := range cands {
			if overlaps(p, atoms) {
				locked = append(locked, p)
			} else {
				p.shard.Unlock()
			}
		}
		same := len(locked) == len(snap.parts)
		for i := 0; same && i < len(locked); i++ {
			same = locked[i] == snap.parts[i].p && locked[i].version == snap.parts[i].version
		}
		if !same {
			unlockPartitions(locked)
			return nil, false
		}
	}
	// The store: either bit-identical to the solve's over every relation
	// of merged (every decision's basis is a subset), or moved past it
	// only by groundings of non-overlapping partitions, which cannot
	// unify with any of merged's atoms and so preserve every solution and
	// rejection proof verbatim. Epochs only grow, so a fingerprint equal
	// to fpAll, even read table by table, proves the relations were all
	// unchanged when the first was read; admitMu keeps writeSeq and
	// admitSeq still.
	ok := epochFingerprint(q.db, snap.merged) == out.fpAll ||
		(q.writeSeq.Load() == out.writeSeq && q.admitSeq.Load() == snap.admitSeq)
	if !ok {
		unlockPartitions(locked)
		return nil, false
	}
	return locked, true
}

// publish makes a decided cycle visible, in one critical section:
// record each rejection's unsatisfiability proof, then log every
// accepted pending record as ONE WAL batch write-ahead (durable BEFORE
// any admission becomes visible — §4's pending-transactions table
// discipline, so a log failure rejects cleanly instead of leaving an
// admitted-but-unlogged transaction), merge the overlap set, and install
// each accept into the survivor. It releases admitMu (the caller holds
// it and the overlap set), then runs the k-bound eviction with only the
// surviving partition locked.
//
// The eviction's leading run is known before the batch is written: the
// install leaves the survivor holding out.finalChain with its cached
// solution out.finalCached, so the heads the k-bound will replay are
// finalCached's first groundings. The pending batch carries them after
// the pending records, and they are applied as one unit once the
// install is done; enforceK is left only the heads that need a solve.
func (q *QDB) publish(items []batchItem, locked []*partition, out *batchOutcome, sp *telemetry.Span, ids []int64, errs []error) {
	for i, it := range items {
		d := out.decisions[i]
		if d.ok {
			continue
		}
		if d.fromNeg {
			q.stats.negHits.Add(1)
		} else {
			q.rejects.add(d.negKey, d.negFP)
		}
		q.stats.rejected.Add(1)
		errs[it.idx] = fmt.Errorf("%w: txn %q", ErrRejected, it.orig.String())
	}
	if out.accepts == 0 {
		unlockPartitions(locked)
		q.admitMu.Unlock()
		return
	}
	var affinity int64
	if len(locked) > 0 {
		affinity = locked[0].id()
	}
	accepted := make([]*txn.T, 0, out.accepts)
	for i, it := range items {
		if out.decisions[i].ok {
			accepted = append(accepted, it.admitted)
		}
	}
	var evict []formula.Grounding
	if over := len(out.finalChain) - q.opt.k(); over > 0 {
		evict = out.finalCached[:q.replayable(out.finalChain, out.finalCached, over)]
	}
	walStart := time.Now()
	n, seq, werr := q.logPendingBatch(affinity, accepted, evict)
	sp.Add(stageSubmitWAL, time.Since(walStart))
	if werr != nil {
		unlockPartitions(locked)
		q.admitMu.Unlock()
		for i, it := range items {
			if out.decisions[i].ok {
				errs[it.idx] = werr
			}
		}
		return
	}
	evict = evict[:n]
	p := q.mergeLocked(locked)
	for i, it := range items {
		if out.decisions[i].ok {
			q.installLocked(p, it.admitted, out.finalChain, out.finalCached)
			ids[it.idx] = it.admitted.ID
		}
	}
	q.admitMu.Unlock()
	kerr := q.applyEvictions(p, affinity, seq, accepted, evict)
	if kerr == nil {
		kerr = q.enforceK(p)
	} else {
		p.shard.Unlock()
	}
	if kerr != nil {
		for i, it := range items {
			if out.decisions[i].ok {
				errs[it.idx] = kerr
			}
		}
	}
}

// applyEvictions applies the evictions an admission's pending batch
// (sequence seq) carried as one unit and retires their transactions from
// p, which holds them at its head. If the unit no longer applies (a key
// collision with a commuting write), the store is unchanged and one
// compensating batch aborts the pending batch and records the admitted
// transactions pending again, so recovery skips the evictions but keeps
// the admissions; the cache is dropped and enforceK solves instead.
// Caller holds p's shard.
func (q *QDB) applyEvictions(p *partition, affinity int64, seq uint64, admitted []*txn.T, evict []formula.Grounding) error {
	if len(evict) == 0 {
		return nil
	}
	if err := q.crashApplyPoint(); err != nil {
		return err
	}
	if err := q.applyUnit(evict); err != nil {
		q.stats.solutionStale.Add(1)
		p.cached = nil
		p.version++
		return q.logAbort(affinity, seq, admitted)
	}
	q.stats.forcedByK.Add(int64(len(evict)))
	q.stats.solutionReplays.Add(int64(len(evict)))
	q.retireHeads(p, len(evict))
	return nil
}

// allCached reports whether every snapshot partition carries a cached
// solution (false once a stale apply dropped one).
func (s *admitSnap) allCached() bool {
	for _, ps := range s.parts {
		if ps.cached == nil && len(ps.txns) > 0 {
			return false
		}
	}
	return true
}

// combinedGroundings merges the snapshot partitions' cached groundings
// in transaction-ID order: the chain solution decideBatch's extension
// path starts from.
func (s *admitSnap) combinedGroundings() []formula.Grounding {
	var all []formula.Grounding
	for _, ps := range s.parts {
		all = append(all, ps.cached...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Txn.ID < all[j].Txn.ID })
	return all
}
