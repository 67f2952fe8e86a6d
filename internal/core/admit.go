package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/formula"
	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/telemetry"
	"repro/internal/txn"
)

// This file implements admission — ONE routine behind Submit (a batch of
// one), SubmitBatch and Write (a batch of one blind write, a member that
// carries facts and admits no transaction). Each cycle runs the decision
// procedure (decideBatch, batch.go) over a snapshot of the partitions the
// batch overlaps, then publishes every member's outcome in one critical
// section under admitMu. By default the chain solve — the dominant cost
// of the whole hot path — runs OUTSIDE the admission lock, so concurrent
// clients whose transactions or writes touch disjoint partitions admit
// in parallel instead of serializing. The optimistic protocol is
// snapshot / speculate / validate+publish:
//
//  1. Snapshot: lock the partitions the batch overlaps through
//     lockOverlap (without admitMu — the locator's re-read keeps the set
//     internally consistent, and the final say belongs to step 3) and
//     record, per partition, the pending chain, the cached solution, and
//     the partition's version counter; plus the database-wide
//     partition-set version and admission sequence. The counters are
//     read BEFORE the index walk and bumped by installers AFTER
//     publication, so counter equality later proves the snapshot missed
//     no install.
//  2. Speculate: on the scheduler pool (one worker slot per cycle,
//     bounding concurrent solves machine-wide), through one store view
//     (QDB.view), decide each member in order — a write's structural
//     check, negative-cache probe, solution-extension fast path, or full
//     composed-body solve — over a chain that grows with each accepted
//     transaction and a base store that grows with each accepted write's
//     facts, against immutable
//     inputs: *txn.T values are never mutated once published and
//     partition slices are replaced, not written in place, so the
//     snapshot needs no copies.
//  3. Validate + publish: re-enter admitMu, re-lock the overlap set, and
//     check it is EXACTLY the snapshot (same partitions at the same
//     versions — a new overlapping partition, a merge, a grounding, or a
//     cache refresh all change it), then check the store: the epoch
//     fingerprint of the relations of the whole would-be chain and of
//     the writes' facts must equal the speculation's (bit-identical
//     tables ⇒ every decision reproduces), OR every store mutation since
//     must provably come from groundings of NON-overlapping partitions
//     (admitSeq, which counts published cycles, unchanged — the engine is
//     the store's only writer), which cannot unify with the batch's
//     atoms and so can neither create nor destroy its groundings. On
//     success every outcome — accepts and rejections alike, both are
//     user-visible decisions — is published; on conflict the whole cycle
//     retries, and after maxAdmitAttempts conflicts the call falls back
//     to serial admission, which cannot conflict.
//
// Serial admission is a mode of the same routine, used for
// Options.SerialAdmission and the conflict fallback. It admits the
// members one at a time, holding admitMu from overlap resolution through
// publish, so the partition set cannot move under the solve and nothing
// needs revalidating.
//
// Stats: the per-transaction counters count transactions only: every
// cycle bumps CacheHits or CacheMisses per solved transaction and
// Accepted/Rejected per outcome, and a validated cycle
// OptimisticAdmissions per transaction. A write counts WritesAccepted or
// WritesRejected instead. NegativeHits counts every probe-answered
// refusal. The cycle counters count a write's cycle too: optimistic
// cycles add ParallelSolves (one per cycle) and AdmissionConflicts; a
// conflict then counts AdmissionRetries or, once the budget is spent,
// SerialFallbacks (so conflicts = retries + fallbacks). Serial cycles
// add none of those.
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
		locked = q.lockOverlap(batchAtoms(items))
		snap = buildSnapBatch(locked, items)
	} else {
		snap = q.snapshotOverlapBatch(items)
	}
	sp.Stage(stageAdmitSnapshot)
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
	sp.Stage(stageAdmitSolve)
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
		if h := q.testAdmitDecided; h != nil {
			h()
		}
		q.admitMu.Lock()
		var ok bool
		locked, ok = q.revalidateBatch(snap, items, out)
		sp.Stage(stageAdmitValidate)
		if !ok {
			q.admitMu.Unlock()
			return false
		}
		for _, it := range items {
			if it.admitted != nil {
				q.stats.optimisticAdmissions.Add(1)
			}
		}
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
	locked := q.lockOverlap(batchAtoms(items))
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
	slices.SortFunc(snap.base, byID)
	snap.merged = make([]*txn.T, 0, n+len(items))
	snap.merged = append(snap.merged, snap.base...)
	for _, it := range items {
		if it.admitted != nil {
			snap.merged = append(snap.merged, it.admitted)
		}
	}
	slices.SortFunc(snap.merged, byID)
	return snap
}

func byID(a, b *txn.T) int { return cmp.Compare(a.ID, b.ID) }

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
		locked = q.lockOverlap(batchAtoms(items))
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
	// unchanged when the first was read. admitMu keeps admitSeq still. A
	// write published since the snapshot moved it and partVersion, so
	// the re-lock above waited on its home if it unifies with the batch
	// and has not applied, and the fingerprint decides; one published
	// before was waited for by the snapshot or commutes with the batch.
	ok := cycleFingerprint(q.db, snap.merged, items) == out.fpAll ||
		q.admitSeq.Load() == snap.admitSeq
	if !ok {
		unlockPartitions(locked)
		return nil, false
	}
	return locked, true
}

// publish makes a decided cycle visible. In one critical section under
// admitMu it reports each refusal (recording its unsatisfiability
// proof), appends ONE WAL batch — the accepted writes' facts, every
// accepted pending record, then the evictions they trigger — merges the
// overlap set and installs the cycle into the survivor; then it releases
// admitMu (the caller holds it and the overlap set) and, still holding
// the survivor's shard, waits for the batch to be durable before
// anything is applied or acknowledged (§4's pending-transactions table
// is written ahead). After the wait it applies the carried unit and runs
// the rest of the k-bound with only the survivor locked.
//
// Holding the survivor through the wait is what makes waiting outside
// admitMu safe. Every locator blocks on that shard (lockOverlap,
// lockGroup, revalidateBatch's re-lock, lockAllPartitions), so nothing
// reads, grounds or extends the partition before its batch is durable
// and applied, and a batch that depends on it — the next admission into
// it, a grounding of it, a write it constrains — is appended only
// afterwards, whatever segment either batch lands on. So a crash can
// never keep a dependent batch and lose its predecessor: a merge logging
// to locked[0]'s segment while the merged partitions' earlier batches
// sit on other segments finds those batches durable already, and
// recovery re-admits every record (readmit). A follower may pull the
// batch from the in-memory tail before it is durable, as it could before
// the wait moved out of admitMu. A checkpoint cut blocks on the shard
// too, so its stamp never covers an install that is not yet in its
// snapshot.
//
// The survivor is an accepted write's home: its key atoms (keyAtoms) are
// filed under it from the install until its facts have applied, so a
// later write on the same key, which may unify with no pending
// transaction, finds the home and blocks on it as well.
//
// A failed wait means the members are installed but not durable: under
// the still-held shard the writes' keys are filed out and the install is
// undone (uninstallLocked), the merge is kept — a coarser partition is
// always correct — and each member gets the log's error, so a log
// failure rejects cleanly instead of leaving an admitted-but-unlogged
// transaction or an unlogged write.
//
// The eviction's leading run is known before the batch is written: the
// install leaves the survivor holding out.finalChain with its cached
// solution out.finalCached, so the heads the k-bound will replay are
// finalCached's first groundings. The batch carries them after the
// pending records, and they are applied with the writes' facts as one
// unit once the batch is durable (applyCarried); enforceK is left only
// the heads that need a solve.
func (q *QDB) publish(items []batchItem, locked []*partition, out *batchOutcome, sp *telemetry.Span, ids []int64, errs []error) {
	var accepted []*txn.T
	var c carried
	for i, it := range items {
		d := out.decisions[i]
		switch {
		case d.ok:
			if it.admitted != nil {
				accepted = append(accepted, it.admitted)
			}
			if len(it.inserts)+len(it.deletes) > 0 {
				c.writes = append(c.writes, relstore.Unit{Inserts: it.inserts, Deletes: it.deletes})
			}
			c.keys = append(c.keys, d.keys...)
			continue
		case d.err != nil:
			errs[it.idx] = d.err
			continue
		case d.fromNeg:
			q.stats.negHits.Add(1)
		default:
			q.rejects.add(d.negKey, d.negFP)
		}
		if it.admitted == nil {
			q.stats.writesRejected.Add(1)
			errs[it.idx] = ErrWriteRejected
		} else {
			q.stats.rejected.Add(1)
			errs[it.idx] = fmt.Errorf("%w: txn %q", ErrRejected, it.orig.String())
		}
	}
	if out.accepts == 0 {
		unlockPartitions(locked)
		q.admitMu.Unlock()
		return
	}
	// The batch goes to its partition's segment. A fresh partition's ID
	// is the one mergeLocked will give it, which admitMu keeps fixed.
	affinity := q.nextPart
	if len(locked) > 0 {
		affinity = locked[0].id()
	}
	if over := len(out.finalChain) - q.opt.k(); over > 0 {
		c.evict = out.finalCached[:q.replayable(out.finalChain, out.finalCached, over)]
	}
	walStart := time.Now()
	n, tk, werr := q.logPendingBatch(affinity, accepted, &c)
	if werr != nil {
		sp.Add(stageAdmitWAL, time.Since(walStart))
		unlockPartitions(locked)
		q.admitMu.Unlock()
		setAcceptedErr(items, out, errs, werr)
		return
	}
	c.evict = c.evict[:n]
	p := q.mergeLocked(locked)
	q.installLocked(p, accepted, c.keys, out.finalChain, out.finalCached)
	q.stats.accepted.Add(int64(len(accepted)))
	for i, it := range items {
		if out.decisions[i].ok && it.admitted != nil {
			ids[it.idx] = it.admitted.ID
		}
	}
	q.admitMu.Unlock()
	werr = q.waitLog(tk)
	sp.Add(stageAdmitWAL, time.Since(walStart))
	if werr != nil {
		q.unfileKeys(c.keys, p)
		q.uninstallLocked(p, accepted)
		p.shard.Unlock()
		setAcceptedErr(items, out, errs, werr)
		return
	}
	applyStart := time.Now()
	kerr := q.applyCarried(p, affinity, tk.Seq, accepted, &c)
	if len(c.writes)+len(c.evict) > 0 {
		sp.Add(stageAdmitApply, time.Since(applyStart))
	}
	if kerr == nil {
		kerr = q.enforceK(p)
	} else {
		p.shard.Unlock()
	}
	if kerr != nil {
		setAcceptedErr(items, out, errs, kerr)
	}
}

// setAcceptedErr reports err to every accepted member of a cycle.
func setAcceptedErr(items []batchItem, out *batchOutcome, errs []error, err error) {
	for i, it := range items {
		if out.decisions[i].ok {
			errs[it.idx] = err
		}
	}
}

// carried is what a cycle's pending batch carries beside its pending
// records: the accepted writes' facts ahead of them and the k-bound
// evictions after them, applied as one unit once the batch is durable.
// keys are the writes' key atoms, filed under the survivor meanwhile.
type carried struct {
	writes []relstore.Unit
	keys   []logic.Atom
	evict  []formula.Grounding
}

// applyCarried applies the unit a cycle's pending batch (sequence seq)
// carried — the writes' facts, then the evictions — files the writes'
// keys out, and retires the evicted heads from p, which holds them at
// its head; an emptied fresh home retires with them. If the unit does
// not apply (a key collision with a commuting write) or the crash
// injection point fires, the store is unchanged and p's cached solution,
// which assumed the unit, is dropped. After a collision one compensating
// batch aborts the pending batch and records the admitted transactions
// pending again, so recovery skips the unit but keeps the admissions,
// which stand (enforceK solves instead); a write gets the error. Caller
// holds p's shard.
func (q *QDB) applyCarried(p *partition, affinity int64, seq uint64, admitted []*txn.T, c *carried) error {
	applied := len(c.writes)+len(c.evict) == 0
	var err error
	if !applied {
		if err = q.crashApplyPoint(); err == nil {
			aerr := q.applyUnit(c.writes, c.evict)
			applied = aerr == nil
			if !applied {
				if len(c.evict) > 0 {
					q.stats.solutionStale.Add(1)
				}
				err = q.logAbort(affinity, seq, admitted)
				if len(c.writes) > 0 {
					err = errors.Join(fmt.Errorf("core: applying write: %w", aerr), err)
				}
			}
		}
	}
	q.unfileKeys(c.keys, p)
	n := len(c.evict)
	if !applied {
		p.cached, n = nil, 0
	}
	q.stats.forcedByK.Add(int64(n))
	q.stats.solutionReplays.Add(int64(n))
	q.retireHeads(p, n)
	return err
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
