package core

import (
	"sync"

	"repro/internal/hash"
	"repro/internal/relstore"
	"repro/internal/txn"
)

// This file implements the cross-solve solution-caching layer (the §4
// amortization argument taken further): chain-solve outcomes are keyed
// by (transaction-view content hash, store-epoch fingerprint) so that a
// repeated satisfiability question against an unchanged store is a cache
// probe, not a solve. Three mechanisms compose:
//
//   - Per-partition solution replay: each partition carries a cached
//     consistent grounding (partition.cached), kept valid by the engine's
//     own write paths. Grounding the partition head replays the cached
//     grounding directly — zero solver work (see QDB.replayHead in
//     ground.go).
//   - Negative solve cache (rejectCache): unsatisfiable solve instances
//     (rejected admissions, rejected blind writes, failed reorder
//     attempts) are remembered; resubmitting the same question against
//     unchanged relations is answered by probe. Keys are content hashes
//     (txn.T.ContentKey), invariant under variable renaming, so a fresh
//     rename-apart of the same transaction text still hits.
//   - Cross-solve prepared queries (formula.PrepCache, owned by the QDB
//     and threaded through ChainOptions.Prep).
//
// Soundness rests on the engine being the store's only writer, and that
// is enforced, not assumed: New takes the store's ownership latch
// (relstore.DB.Own), after which every write from outside the engine is
// refused with relstore.ErrOwned. The engine's own write paths keep the
// per-partition solutions aligned, so those need no stamp. The negative
// cache and admission validation key on epoch fingerprints: relstore
// epochs are monotone and bumped on every committed mutation, so
// fingerprint equality proves the solve's relevant relations are
// bit-identical to when the entry was recorded. The converse is
// conservative: an epoch bump by a write that did not affect this solve
// (another partition touching the same table) invalidates spuriously and
// costs one re-solve, never correctness.

// epochFingerprint hashes the current epochs of every relation the given
// transaction views mention (body and update atoms — update relations
// matter because groundings are checked for key collisions against
// them). Iteration order is first-occurrence, which is deterministic for
// a fixed view sequence, so equal view sequences at equal store states
// produce equal fingerprints.
func (q *QDB) epochFingerprint(ts []*txn.T) uint64 {
	h := uint64(hash.Offset64)
	// First-occurrence dedup over a stack buffer: admissions fingerprint
	// several times per call (negative key, stamp, validation), so this
	// path stays allocation-free for realistic relation counts.
	var relsBuf [16]string
	rels := relsBuf[:0]
	for _, t := range ts {
		for _, b := range t.Body {
			h, rels = q.fingerprintRel(h, rels, b.Atom.Rel)
		}
		for _, u := range t.Update {
			h, rels = q.fingerprintRel(h, rels, u.Atom.Rel)
		}
	}
	return h
}

// fingerprintRel folds rel's table epoch into h unless already seen.
func (q *QDB) fingerprintRel(h uint64, rels []string, rel string) (uint64, []string) {
	for _, r := range rels {
		if r == rel {
			return h, rels
		}
	}
	rels = append(rels, rel)
	h = hash.String(h, rel)
	h = hash.Mix(h, q.db.TableEpoch(rel))
	return h, rels
}

// solveKey identifies a chain-solve instance up to variable renaming:
// the content keys of the solver views in order, the optional-handling
// flags, and an optional delta hash (for solves over the store plus a
// hypothetical write).
func solveKey(views []*txn.T, maximize bool, sample int, delta uint64) uint64 {
	h := uint64(hash.Offset64)
	for _, v := range views {
		h = hash.Mix(h, v.ContentKey())
	}
	if maximize {
		h = hash.Mix(h, 1)
	}
	h = hash.Mix(h, uint64(sample))
	h = hash.Mix(h, delta)
	return h
}

// deltaKey hashes a blind write's fact batch, for keying validation
// solves that run over the store plus the hypothetical write.
func deltaKey(inserts, deletes []relstore.GroundFact) uint64 {
	h := uint64(hash.Offset64)
	hashFacts := func(sign uint64, fs []relstore.GroundFact) {
		h = hash.Mix(h, sign)
		for _, f := range fs {
			h = hash.String(h, f.Rel)
			for _, v := range f.Tuple {
				h = hash.String(h, v.Quoted())
			}
		}
	}
	hashFacts('+', inserts)
	hashFacts('-', deletes)
	return h
}

// rejectCacheCap bounds the negative cache; on overflow the whole map is
// dropped (entries are one re-solve away from being rediscovered, so a
// crude reset beats per-entry accounting on this path).
const rejectCacheCap = 4096

// rejectCache memoizes unsatisfiable solve instances. An entry maps a
// solve key to the epoch fingerprint current when unsatisfiability was
// proven; the entry answers a probe only while the fingerprint still
// matches, so invalidation is by comparison and writes need no explicit
// hook. Internally locked: admissions probe it under admitMu, but
// grounding paths (trySolveAndApply) probe it under only their
// partition's shard.
type rejectCache struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

// hit reports whether the instance keyed by key was proven unsatisfiable
// at the given epoch fingerprint.
func (rc *rejectCache) hit(key, fingerprint uint64) bool {
	rc.mu.Lock()
	fp, ok := rc.m[key]
	rc.mu.Unlock()
	return ok && fp == fingerprint
}

// add records an unsatisfiability proof.
func (rc *rejectCache) add(key, fingerprint uint64) {
	rc.mu.Lock()
	if rc.m == nil || len(rc.m) >= rejectCacheCap {
		rc.m = make(map[uint64]uint64)
	}
	rc.m[key] = fingerprint
	rc.mu.Unlock()
}
