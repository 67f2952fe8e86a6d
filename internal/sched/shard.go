// Package sched is the partition-sharded execution scheduler of the
// quantum engine. Partitions are mutually non-unifiable by construction
// (§4), so their chain solves never interact; sched gives each partition
// its own lock (Shard) and drives multi-partition work — GroundAll,
// k-bound eviction, read collapse, write validation — over a bounded
// worker pool (Pool).
//
// Locking discipline (enforced by convention across internal/core):
//
//   - Shards are always acquired in ascending ID order, so the ordering
//     is deadlock-free by construction. The engine turns a key into
//     locked shards through two locators: one by atoms, which locks the
//     partition index's candidates in ID order, and one by pending
//     transaction IDs, which multi-locks via LockOrdered (it sorts and
//     deduplicates).
//   - A shard outlives its partition: when partitions merge or drain
//     empty, the losing shard is Retired under its own lock, and a
//     waiter that blocked on it observes !Alive(). Both locators then
//     follow one validation rule: after locking, the key must still
//     resolve inside the locked set, through the registry, or they
//     unlock and retry (counted by the engine's LockWaits stat).
//   - Pool tasks must never block-acquire a shard (TryLock and skip, or
//     receive the shard pre-locked by the dispatching goroutine);
//     otherwise a task waiting for a shard held by a goroutine that is
//     itself waiting for a pool slot would deadlock the pool.
package sched

import (
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Shard is one lockable unit of engine state: a partition's mutex plus a
// liveness flag. The zero value is not usable; create with NewShard.
type Shard struct {
	id   int64
	mu   sync.Mutex
	dead bool

	// WaitHist, when set (at creation, before the shard is shared),
	// records how long contended Lock acquisitions waited. Uncontended
	// locks take the TryLock fast path — one CAS, same as an uncontended
	// Mutex.Lock — and record nothing, so arming the histogram costs the
	// common case no clock reads.
	WaitHist *telemetry.Histogram
}

// NewShard returns a live shard with the given ID. IDs must be unique
// among shards that can be multi-locked together (LockOrdered relies on
// them for the canonical order).
func NewShard(id int64) *Shard { return &Shard{id: id} }

// ID returns the shard's canonical ordering key.
func (s *Shard) ID() int64 { return s.id }

// Lock acquires the shard, timing the wait when it is contended.
func (s *Shard) Lock() {
	if s.mu.TryLock() {
		return
	}
	start := time.Now()
	s.mu.Lock()
	s.WaitHist.Observe(time.Since(start))
}

// TryLock acquires the shard without blocking; pool tasks use it so a
// busy shard is skipped rather than waited on (see the package comment).
func (s *Shard) TryLock() bool { return s.mu.TryLock() }

// Unlock releases the shard.
func (s *Shard) Unlock() { s.mu.Unlock() }

// Alive reports whether the shard still backs a live partition. Callers
// must hold the lock.
func (s *Shard) Alive() bool { return !s.dead }

// Retire marks the shard dead (its partition merged away or drained).
// Callers must hold the lock; retirement is permanent.
func (s *Shard) Retire() { s.dead = true }

// LockOrdered acquires every distinct shard in ss in ascending ID order
// and returns the ordered, deduplicated set it locked (callers unlock
// exactly that set, with UnlockAll). The input slice is not modified.
func LockOrdered(ss []*Shard) []*Shard {
	if len(ss) == 0 {
		return nil
	}
	ordered := make([]*Shard, len(ss))
	copy(ordered, ss)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].id < ordered[j].id })
	w := 0
	for i, s := range ordered {
		if i > 0 && s == ordered[w-1] {
			continue
		}
		ordered[w] = s
		w++
	}
	ordered = ordered[:w]
	for _, s := range ordered {
		s.Lock()
	}
	return ordered
}

// UnlockAll releases every shard in ss.
func UnlockAll(ss []*Shard) {
	for _, s := range ss {
		s.Unlock()
	}
}
