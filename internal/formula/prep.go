package formula

import (
	"sync"
	"sync/atomic"

	"repro/internal/relstore"
)

// PrepCache is a cross-solve cache of compiled bodies (the body query and
// its update plans), keyed by transaction shape (txn.T.Shape), optional-
// subset mask and planner. Transactions of one shape differ only in
// their constants, so a solve claims a cached body and rebinds its own
// constants into it instead of compiling: a booking reuses the plan of
// the last booking — the per-operation compile cost of the §4
// amortization argument, paid once per shape.
//
// A body's relstore.Prepared owns the mutable binding environment the
// evaluator backtracks over, so it is never evaluated concurrently. Each
// key therefore holds a free list: a claim pops a body (or reports a
// miss, and the caller compiles one), and the release at the end of the
// solve pushes it back. A chain of n same-shape levels holds n bodies at
// once; concurrent solves of one shape hold distinct ones.
//
// Shapes are chosen by clients, and a peer can mint unlimited shapes, so
// the number of keys is capped; on overflow the map is dropped wholesale
// (every body is one compile away from rediscovery, and bodies claimed at
// the time are released into the orphaned lists).
type PrepCache struct {
	mu sync.Mutex
	m  map[prepKey]*freeList

	hits, misses atomic.Int64
}

type prepKey struct {
	shape   string
	mask    uint64
	planner relstore.PlannerMode
}

// freeList holds one key's idle bodies; guarded by PrepCache.mu.
type freeList struct{ bodies []*body }

// claim is one body held by a solve, and the list it returns to.
type claim struct {
	fl *freeList
	b  *body
}

// PrepCacheCap bounds the number of cached keys; on overflow they are all
// dropped.
const PrepCacheCap = 4096

// NewPrepCache returns an empty cache.
func NewPrepCache() *PrepCache {
	return &PrepCache{m: make(map[prepKey]*freeList)}
}

// claim pops an idle body for the key; b is nil on a miss, and the caller
// compiles one and holds it under the returned claim. Hit and miss counts
// are recorded here: the chain solver claims once per (level, mask) per
// solve (it keeps a per-solve L1), so the counters measure cross-solve
// reuse, not per-candidate traffic.
func (pc *PrepCache) claim(k prepKey) claim {
	pc.mu.Lock()
	fl := pc.m[k]
	if fl == nil {
		if len(pc.m) >= PrepCacheCap {
			pc.m = make(map[prepKey]*freeList)
		}
		fl = &freeList{}
		pc.m[k] = fl
	}
	cl := claim{fl: fl}
	if n := len(fl.bodies); n > 0 {
		cl.b, fl.bodies[n-1] = fl.bodies[n-1], nil
		fl.bodies = fl.bodies[:n-1]
	}
	pc.mu.Unlock()
	if cl.b != nil {
		pc.hits.Add(1)
	} else {
		pc.misses.Add(1)
	}
	return cl
}

// release returns claimed bodies to their free lists.
func (pc *PrepCache) release(cls []claim) {
	pc.mu.Lock()
	for _, cl := range cls {
		cl.fl.bodies = append(cl.fl.bodies, cl.b)
	}
	pc.mu.Unlock()
}

// Len reports the number of cached keys (shape, mask, planner).
func (pc *PrepCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.m)
}

// Counters returns the cumulative cross-solve hit and miss counts.
func (pc *PrepCache) Counters() (hits, misses int64) {
	return pc.hits.Load(), pc.misses.Load()
}
