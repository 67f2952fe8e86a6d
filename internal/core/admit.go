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
// carries facts and admits no transaction). Each cycle locks the
// partitions the batch can overlap, runs the decision procedure
// (decideBatch, batch.go) over them, then publishes every member's
// outcome in one critical section under admitMu. By default the chain
// solve — the dominant cost of the whole hot path — runs OUTSIDE the
// admission lock, so concurrent clients whose transactions or writes
// touch disjoint partitions admit in parallel instead of serializing.
// The optimistic protocol is snapshot / speculate / validate+publish:
//
//  1. Snapshot: read the database-wide partition-set version and
//     admission sequence, then lock every index candidate for the
//     batch's atoms (lockCandidates, false positives included) and keep
//     them held through publish. The partitions the batch overlaps are
//     the snapshot: while held, their pending chains and cached
//     solutions cannot change.
//  2. Speculate: on the scheduler pool (one worker slot per cycle,
//     bounding concurrent solves machine-wide), through one store view
//     (QDB.view), decide each member in order — a write's structural
//     check, negative-cache probe, solution-extension fast path, or full
//     composed-body solve — over a chain that grows with each accepted
//     transaction and a base store that grows with each accepted write's
//     facts.
//  3. Validate + publish: take admitMu and check, without waiting, that
//     no partition the batch overlaps appeared since the snapshot
//     (overlapStands), then check the store (storeStands): the epoch
//     fingerprint of the relations of the whole would-be chain and of
//     the writes' facts must equal the speculation's, OR admitSeq, which
//     counts published cycles, must be unchanged — the engine is the
//     store's only writer, and with no install every store mutation
//     since came from groundings of partitions outside the candidate
//     set, which cannot unify with the batch's atoms. On success every
//     outcome — accepts and rejections alike, both are user-visible
//     decisions — is published; on conflict the whole cycle retries,
//     and after maxAdmitAttempts conflicts the call falls back to serial
//     admission.
//
// Serial admission is a mode of the same routine, used for
// Options.SerialAdmission and the conflict fallback. It admits the
// members one at a time and takes admitMu right after the snapshot, so
// the overlap check comes before the solve and the store check is moot;
// a failed check retries the member (counted in LockWaits).
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

// admitSnap is what a cycle's decisions depend on.
type admitSnap struct {
	partVersion uint64
	admitSeq    uint64
	// held is every candidate partition the cycle locked, false positives
	// included; parts is the subset the batch overlaps. Both ascend by ID.
	held, parts []*partition
	// base is the overlapping partitions' pending chain alone and merged
	// is base plus the whole batch, both ascending by ID: decideBatch
	// grows its chain from base as members are accepted, while merged
	// remains the validation basis.
	base, merged []*txn.T
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
		for !q.admitCycle(items[i:i+1], true, ids, errs, sp) {
			q.stats.lockWaits.Add(1)
		}
	}
}

// admitCycle runs one snapshot → decide → publish cycle over items and
// reports whether it published. It holds the snapshot's partitions from
// the snapshot through publish and takes admitMu after them: a serial
// cycle before deciding, an optimistic one after. It returns false,
// having published nothing, when a partition the batch overlaps
// appeared meanwhile, or, optimistic only, when the store moved under
// the decisions.
func (q *QDB) admitCycle(items []batchItem, serial bool, ids []int64, errs []error, sp *telemetry.Span) bool {
	sp.Mark()
	atoms := batchAtoms(items)
	snap := q.snapshotOverlapBatch(items, atoms)
	sp.Stage(stageAdmitSnapshot)
	if serial {
		q.admitMu.Lock()
		if !q.overlapStands(snap, atoms) {
			unlockPartitions(snap.held)
			q.admitMu.Unlock()
			return false
		}
	}
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
		unlockPartitions(snap.held)
		if serial {
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
		ok := q.overlapStands(snap, atoms) && q.storeStands(snap, items, out)
		sp.Stage(stageAdmitValidate)
		if !ok {
			unlockPartitions(snap.held)
			q.admitMu.Unlock()
			return false
		}
		for _, it := range items {
			if it.admitted != nil {
				q.stats.optimisticAdmissions.Add(1)
			}
		}
	}
	unlockOthers(snap.held, snap.parts)
	q.publish(items, snap.parts, out, sp, ids, errs)
	return true
}

// snapshotOverlapBatch locks the batch's candidate partitions and
// freezes those it overlaps, over the union of its atoms: merging every
// member's overlap set into one snapshot is the batch's tentative
// partition merge — coarser than n individual merges would be only when
// members are mutually disjoint, and a coarser partitioning is always
// correct (it can only force more serialization, never miss a
// dependency). The counters are read before the index walk: installs
// publish to the index before bumping them.
func (q *QDB) snapshotOverlapBatch(items []batchItem, atoms []logic.Atom) *admitSnap {
	partVersion := q.partVersion.Load()
	admitSeq := q.admitSeq.Load()
	held := q.lockCandidates(atoms)
	snap := buildSnapBatch(overlapping(held, atoms), items)
	snap.held, snap.partVersion, snap.admitSeq = held, partVersion, admitSeq
	return snap
}

// buildSnapBatch assembles base and merged over parts, which the caller
// holds. A concurrent admission can install an ID above the batch's
// between our ID assignment and this snapshot, so merged is sorted
// rather than assumed append-ordered.
func buildSnapBatch(parts []*partition, items []batchItem) *admitSnap {
	snap := &admitSnap{parts: parts}
	n := 0
	for _, p := range parts {
		n += len(p.txns)
	}
	snap.base = make([]*txn.T, 0, n)
	for _, p := range parts {
		snap.base = append(snap.base, p.txns...)
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

// overlapStands reports whether the snapshot's held set still holds
// every partition the batch can overlap. Caller holds admitMu, so no
// install runs meanwhile: partVersion unchanged means none ran since the
// snapshot, and otherwise the index is re-read (covers). Neither waits.
func (q *QDB) overlapStands(snap *admitSnap, atoms []logic.Atom) bool {
	return q.partVersion.Load() == snap.partVersion || q.covers(snap.held, atoms)
}

// storeStands reports whether an optimistic cycle's decisions still hold
// over the store. Caller holds admitMu, which keeps admitSeq still. The
// store is either bit-identical to the solve's over every relation of
// merged (every decision's basis is a subset), or moved past it only by
// groundings of partitions outside the held set, which cannot unify
// with any of merged's atoms and so preserve every solution and
// rejection proof verbatim. Epochs only grow, so a fingerprint equal to
// fpAll, even read table by table, proves the relations were all
// unchanged when the first was read. A cycle published since the
// snapshot moved admitSeq, and then the fingerprint decides.
func (q *QDB) storeStands(snap *admitSnap, items []batchItem, out *batchOutcome) bool {
	return cycleFingerprint(q.db, snap.merged, items) == out.fpAll ||
		q.admitSeq.Load() == snap.admitSeq
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
// admitMu safe. Every locator blocks on that shard (lockCandidates,
// lockGroup, lockAllPartitions), none of them under admitMu, so nothing
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

// allCached reports whether every overlapping partition carries a cached
// solution (false once a stale apply dropped one).
func (s *admitSnap) allCached() bool {
	for _, p := range s.parts {
		if p.cached == nil && len(p.txns) > 0 {
			return false
		}
	}
	return true
}

// combinedGroundings merges the overlapping partitions' cached groundings
// in transaction-ID order: the chain solution decideBatch's extension
// path starts from.
func (s *admitSnap) combinedGroundings() []formula.Grounding {
	var all []formula.Grounding
	for _, p := range s.parts {
		all = append(all, p.cached...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Txn.ID < all[j].Txn.ID })
	return all
}
