package core

import (
	"repro/internal/formula"
	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/txn"
)

// This file holds the admission entry points' shared front half and THE
// decision procedure. Submit is a batch of one: both entry points
// validate, ID-stamp and rename apart through submit, then run the one
// admission routine (admit.go). decideBatch plays the decision —
// negative probe, solution extension, full composed-body solve — over a
// chain that grows as earlier members are accepted, so a batch of n
// decides exactly as n sequential Submits would against the same store.
// What a batch amortizes is everything around the decisions: one
// overlap snapshot over the union of the batch's atoms, one scheduler
// slot, one store read-gate acquisition for all n solves, one
// admission-lock critical section, one partition merge, and ONE WAL
// batch carrying all n pending records (a single group-commit fsync
// instead of n).
//
// Validation is coarser than per-member validation and therefore sound:
// the fingerprint taken at solve time covers the UNION of the batch's
// relations (every per-decision basis is a subset), so its equality at
// install time revalidates every decision at once — at worst it
// conflicts spuriously, never falsely validates.

// batchItem pairs one member's caller-visible form with its admitted
// (ID-stamped, renamed-apart) form and its index in the caller's slices.
type batchItem struct {
	idx      int
	orig     *txn.T
	admitted *txn.T
}

// batchDecision is one member's admission decision, pending validation.
type batchDecision struct {
	ok            bool
	fromNeg       bool // unsatisfiability answered by negative-cache probe
	negKey, negFP uint64
}

// batchOutcome is what one cycle's decisions learned.
type batchOutcome struct {
	// writeSeq is the accepted-blind-write count at solve time, read
	// under the same read gate as the solve's store view.
	writeSeq uint64
	// fpAll fingerprints the relations of the full would-be chain
	// (snap.merged) at solve time. Every per-member decision's relation
	// set is a subset of merged's, so fpAll equality at validation
	// proves every decision basis unchanged at once.
	fpAll     uint64
	decisions []batchDecision
	// finalChain is base plus the accepted members, ascending by ID;
	// finalCached is its aligned chain solution (nil when the cache is
	// disabled or no full solution is available).
	finalChain  []*txn.T
	finalCached []formula.Grounding
	accepts     int
}

// SubmitBatch admits a batch of resource transactions, amortizing one
// snapshot/speculate/validate/log cycle across the batch (the server's
// pipelined data plane feeds it whole windows of submits from one
// connection). Results align with ts: ids[i] is the assigned ID when
// errs[i] is nil; members are decided independently, so one rejection
// does not poison its neighbours — exactly as if each had been
// Submitted alone, in slice order.
func (q *QDB) SubmitBatch(ts []*txn.T) ([]int64, []error) {
	ids := make([]int64, len(ts))
	errs := make([]error, len(ts))
	q.submit(ts, ids, errs, true)
	return ids, errs
}

// submit is both entry points' front half: validate each transaction,
// assign its ID and rename it apart, then admit the valid ones. IDs are
// assigned up front, in slice order under one registry lock, before any
// admission lock: concurrent optimistic admissions each need their
// rename-apart variable suffix (and their identity in solver groundings)
// while solving in parallel. A rejected or errored admission burns its
// ID — gaps are fine, recovery resumes from max+1. Results land in ids
// and errs, aligned with ts; batched marks SubmitBatch's members for
// Stats.BatchedSubmits.
func (q *QDB) submit(ts []*txn.T, ids []int64, errs []error, batched bool) {
	items := make([]batchItem, 0, len(ts))
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			errs[i] = err
			continue
		}
		items = append(items, batchItem{idx: i, orig: t})
	}
	if len(items) == 0 {
		return
	}
	if err := q.checkWritable(); err != nil {
		for _, it := range items {
			errs[it.idx] = err
		}
		return
	}
	q.stats.submitted.Add(int64(len(items)))
	if batched {
		q.stats.batchedSubmits.Add(int64(len(items)))
	}
	q.mu.Lock()
	for i := range items {
		t := items[i].orig
		admitted := &txn.T{ID: q.nextID, Tag: t.Tag, PartnerTag: t.PartnerTag, Body: t.Body, Update: t.Update}
		q.nextID++
		items[i].admitted = admitted.RenamedApart()
	}
	q.mu.Unlock()

	sp := q.met.submit.Start()
	defer sp.End()
	q.admit(items, ids, errs, &sp)
}

// batchAtoms collects the union of every member's atoms: the batch's
// overlap-resolution key.
func batchAtoms(items []batchItem) []logic.Atom {
	if len(items) == 1 {
		return atomsOf(items[0].admitted)
	}
	var out []logic.Atom
	for _, it := range items {
		out = append(out, atomsOf(it.admitted)...)
	}
	return out
}

// insertByID writes chain plus t into dst (reset by the caller),
// ascending by ID, and returns it.
func insertByID(dst, chain []*txn.T, t *txn.T) []*txn.T {
	i := len(chain)
	for i > 0 && chain[i-1].ID > t.ID {
		i--
	}
	dst = append(dst, chain[:i]...)
	dst = append(dst, t)
	return append(dst, chain[i:]...)
}

// decideBatch is THE admission decision procedure: per member in ID
// order, a negative-cache probe, then the cached-solution extension,
// then the full composed-body solve, over a chain grown by each accept,
// under ONE store read-gate acquisition. A member decided after an
// accepted predecessor sees that predecessor in its chain — byte for
// byte the question sequential Submits would have asked — and a
// rejected member leaves the chain untouched, so later members decide
// as if it never arrived. The read gate keeps store writers from queuing
// mid-solve (the evaluator re-enters relstore read locks; see
// trySolveAndApply) and freezes the epochs, so the fingerprints recorded
// in out describe precisely the store state the decisions saw. It takes
// no shard and no admission lock itself: a serial caller holds both, an
// optimistic one validates afterwards.
func (q *QDB) decideBatch(snap *admitSnap, items []batchItem, out *batchOutcome) error {
	q.storeMu.RLock()
	defer q.storeMu.RUnlock()
	out.writeSeq = q.writeSeq.Load()
	out.fpAll = q.epochFingerprint(snap.merged)
	out.decisions = make([]batchDecision, len(items))

	chain := append(make([]*txn.T, 0, len(snap.merged)), snap.base...)
	// cached is the chain's solution when known is set (an empty chain's
	// is nil). The snapshot's combined solution is fetched when a member
	// first gets past the negative probe (a probe-answered rejection
	// never pays for the merge); after that each accept keeps it aligned
	// with chain.
	var cached []formula.Grounding
	known, seeded := false, q.opt.DisableCache || !snap.allCached()
	scratch := make([]*txn.T, 0, len(snap.merged))
	for i, it := range items {
		t := it.admitted
		d := &out.decisions[i]
		scratch = insertByID(scratch[:0], chain, t)
		views := stripAll(scratch)
		if !q.opt.DisableCache {
			// Negative probe: the same composed-body question (up to
			// variable renaming — ContentKey normalizes the fresh
			// rename-apart) proven unsatisfiable against these relations
			// at these epochs rejects by cache probe, skipping both solve
			// paths.
			d.negKey = solveKey(views, false, 1, 0)
			d.negFP = q.epochFingerprint(views)
			if q.rejects.hit(d.negKey, d.negFP) {
				d.fromNeg = true
				continue
			}
		}
		if !seeded {
			seeded, known = true, true
			cached = snap.combinedGroundings()
		}
		if known && (len(chain) == 0 || chain[len(chain)-1].ID < t.ID) {
			// Extension fast path: ground just this member over the
			// chain's solution. The ID guard keeps the extension aligned
			// with the chain order: IDs are assigned before any admission
			// lock, so an admission with a later ID can install first,
			// and a solution extended at the END of the chain is only
			// valid for a member that also sorts last.
			ov := relstore.NewOverlay(q.db)
			if applyGroundings(ov, cached) == nil {
				sol, ok, err := formula.SolveChain(ov, []*txn.T{strip(t)}, q.chainOpts(false))
				if err != nil {
					return err
				}
				if ok {
					q.stats.cacheHits.Add(1)
					d.ok = true
					out.accepts++
					chain = append(chain, t)
					cached = append(cached, sol.Groundings[0])
					continue
				}
			}
		}
		// Slow path: full composed-body satisfiability check.
		q.stats.cacheMisses.Add(1)
		sol, ok, err := formula.SolveChain(q.db, views, q.chainOpts(false))
		if err != nil {
			return err
		}
		if ok {
			d.ok = true
			out.accepts++
			chain = append(chain[:0], scratch...)
			if !q.opt.DisableCache {
				// The full chain solution re-seeds the extension path for
				// the remaining members.
				cached, known = sol.Groundings, true
			}
		}
	}
	out.finalChain = chain
	out.finalCached = cached
	return nil
}
