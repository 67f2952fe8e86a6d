package formula

import (
	"sync"
	"sync/atomic"

	"repro/internal/txn"
)

// PrepCache is a cross-solve cache of compiled bodies (the body query and
// its update plans), keyed by (transaction view pointer, optional-subset
// mask). The chain solver compiles each transaction body per solve;
// hoisting the compilation here makes prepared queries survive across
// operations, so a transaction admitted once is never recompiled for the
// admission checks, groundings, and write validations that follow —
// the remaining per-operation compile cost of the §4 amortization
// argument.
//
// Keys are view POINTERS, which is why it works: the engine memoizes the
// strip/harden views of every admitted transaction (txn.T.Stripped,
// txn.T.Hardened), so the same body is always presented under the same
// pointer. The map itself is synchronized (solves of independent
// partitions share one cache), but a cached body's relstore.Prepared is NOT
// safe for concurrent evaluation — it owns the mutable binding
// environment the evaluator backtracks over. Entries are therefore
// CLAIMED for the duration of a solve: lookup hands an entry to at most
// one solver at a time, a concurrent solve of the same view misses and
// compiles its own copy (optimistic admission speculates over partition
// snapshots without holding the shard, so same-view solves genuinely
// can overlap), and the solver releases its claims when it finishes.
//
// Entries are evicted when their transaction leaves the system
// (grounded, merged away at rejection); the cache is bounded by the
// number of pending transactions times their optional-subset masks,
// plus a hard cap that clears everything if churn (e.g. a store racing
// an eviction) ever accumulates stale views.
type PrepCache struct {
	mu sync.RWMutex
	m  map[*txn.T]map[uint64]*prepEntry

	hits, misses atomic.Int64
}

// prepEntry wraps one compiled body with its exclusive-use claim.
type prepEntry struct {
	b     *body
	inUse atomic.Bool
}

// release returns the entry to the cache's free state; the solver that
// claimed it (via lookup or store) must call it exactly once, after its
// last evaluation of the query.
func (e *prepEntry) release() { e.inUse.Store(false) }

// prepCacheCap bounds the number of cached views; on overflow the map is
// dropped wholesale (entries are one compile away from rediscovery).
const prepCacheCap = 4096

// NewPrepCache returns an empty cache.
func NewPrepCache() *PrepCache {
	return &PrepCache{m: make(map[*txn.T]map[uint64]*prepEntry)}
}

// lookup returns the compiled query for (view, mask), claiming it for
// exclusive evaluation; ok=false when absent or currently claimed by
// another solve. Hit and miss counts are recorded here: the chain solver
// consults the shared cache once per (view, mask) per solve (it keeps a
// per-solve L1), so the counters measure cross-solve reuse, not
// per-candidate traffic (a claimed-by-another-solve entry counts as a
// miss — the caller compiles).
func (pc *PrepCache) lookup(view *txn.T, mask uint64) (*body, *prepEntry, bool) {
	pc.mu.RLock()
	e := pc.m[view][mask]
	pc.mu.RUnlock()
	if e != nil && e.inUse.CompareAndSwap(false, true) {
		pc.hits.Add(1)
		return e.b, e, true
	}
	pc.misses.Add(1)
	return nil, nil, false
}

// store records a freshly compiled body for (view, mask) and returns its
// entry, already claimed by the caller (release it after the solve). A
// racing store for the same key overwrites; the loser's entry stays valid
// for its holder and is dropped when released.
func (pc *PrepCache) store(view *txn.T, mask uint64, b *body) *prepEntry {
	e := &prepEntry{b: b}
	e.inUse.Store(true)
	pc.mu.Lock()
	inner := pc.m[view]
	if inner == nil {
		if len(pc.m) >= prepCacheCap {
			pc.m = make(map[*txn.T]map[uint64]*prepEntry)
		}
		inner = make(map[uint64]*prepEntry, 1)
		pc.m[view] = inner
	}
	inner[mask] = e
	pc.mu.Unlock()
	return e
}

// Evict drops every compiled query of the transaction's materialized
// views. Call it when the transaction leaves the system (grounded, or
// rejected at admission).
func (pc *PrepCache) Evict(t *txn.T) {
	views := t.MemoizedViews()
	pc.mu.Lock()
	for _, v := range views {
		delete(pc.m, v)
	}
	pc.mu.Unlock()
}

// Len reports the number of views with at least one cached compilation.
func (pc *PrepCache) Len() int {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	return len(pc.m)
}

// Counters returns the cumulative cross-solve hit and miss counts.
func (pc *PrepCache) Counters() (hits, misses int64) {
	return pc.hits.Load(), pc.misses.Load()
}
