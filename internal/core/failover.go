package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/formula"
	"repro/internal/txn"
)

// This file is the leader half of fenced failover. The replication term
// is a monotone fencing token: every WAL batch is stamped with the term
// it was appended under, every shipped chunk carries it, and a leader
// whose term has been superseded cannot append (wal.ErrStaleTerm) or
// admit (ErrDemoted). Promotion raises the term by exactly one fence
// exchange, so at most one engine can ever hold a given term — the
// invariant that makes "no acked write lost, no split brain" a property
// of the token rather than of timing.

// ErrDemoted is returned by mutating entry points on a leader that has
// observed a newer replication term: a follower was promoted past it.
// The demoted engine keeps serving snapshot reads and keeps its WAL for
// rejoin-as-follower, but refuses everything that would fork history.
// Callers can surface LeaderHint as a redirect.
var ErrDemoted = errors.New("core: leader demoted: a newer replication term holds the write lease")

// currentTermLocked is the engine's effective replication term: the max
// of the WAL's term (what appends are stamped with) and the fenced term
// (what a fence exchange promised away). Caller holds failoverMu.
func (q *QDB) currentTermLocked() uint64 {
	t := q.fencedTerm
	if q.log != nil {
		if lt := q.log.Term(); lt > t {
			t = lt
		}
		if ft := q.log.FencedTerm(); ft > t {
			t = ft
		}
	}
	return t
}

// Term reports the engine's effective replication term.
func (q *QDB) Term() uint64 {
	q.failoverMu.Lock()
	defer q.failoverMu.Unlock()
	return q.currentTermLocked()
}

// ReadOnly reports whether the engine has been demoted to read-only
// follower mode by a newer term.
func (q *QDB) ReadOnly() bool { return q.readOnly.Load() }

// LeaderHint returns the address of the leader this engine last ceded
// to (empty if it has never been demoted) and the effective term — the
// payload of a leader-moved redirect.
func (q *QDB) LeaderHint() (addr string, term uint64) {
	q.failoverMu.Lock()
	defer q.failoverMu.Unlock()
	return q.leaderAddr, q.currentTermLocked()
}

// FenceRequest is the promotion handshake's leader side: a candidate
// proposing to lead at term calls it (directly in process, or via the
// repl.fence verb). The request is granted iff term strictly exceeds
// the engine's effective term; on grant the engine atomically fences
// its WAL at term (late in-flight appends fail with wal.ErrStaleTerm,
// poisoning the whole log, not just future batches), flips to read-only
// mode, and records addr as the leader to redirect clients to. On
// refusal the returned term and leader tell the loser where to
// converge. Exactly one concurrent candidate per term can win: the
// check-and-fence runs under failoverMu.
func (q *QDB) FenceRequest(term uint64, addr string) (granted bool, curTerm uint64, leader string) {
	q.failoverMu.Lock()
	defer q.failoverMu.Unlock()
	cur := q.currentTermLocked()
	if term <= cur {
		return false, cur, q.leaderAddr
	}
	q.demoteLocked(term, addr)
	return true, term, addr
}

// ObserveTerm demotes the engine if term exceeds its effective term —
// the passive path a deposed leader learns of its deposition by: a
// shipped chunk, a pull, or an ack stamped with the new leader's term.
// Below-or-equal terms are ignored (acks from lagging followers).
func (q *QDB) ObserveTerm(term uint64, addr string) {
	q.failoverMu.Lock()
	defer q.failoverMu.Unlock()
	if term > q.currentTermLocked() {
		q.demoteLocked(term, addr)
	}
}

// demoteLocked executes the demotion under failoverMu: fence the WAL
// (the token refusal that makes split-brain impossible even for appends
// already past the entry guards), latch read-only mode, record the new
// leader. Counted once per demotion edge.
func (q *QDB) demoteLocked(term uint64, addr string) {
	if q.log != nil {
		q.log.Fence(term)
	}
	q.fencedTerm = term
	q.leaderAddr = addr
	if !q.readOnly.Swap(true) {
		q.stats.demotions.Add(1)
	}
}

// checkWritable is the mutating entry points' demotion guard. It is
// advisory-fast (one atomic load on the hot path); the WAL fence is the
// authoritative backstop for appends that raced the flip.
func (q *QDB) checkWritable() error {
	if !q.readOnly.Load() {
		return nil
	}
	addr, term := q.LeaderHint()
	if addr == "" {
		return fmt.Errorf("%w (term %d)", ErrDemoted, term)
	}
	return fmt.Errorf("%w (term %d, leader %s)", ErrDemoted, term, addr)
}

// WaitForWALSeq parks the caller until the WAL's sequence exceeds
// after or the timeout lapses — the long-poll primitive the shipper
// uses to push batches the instant they commit instead of eating a
// poll-interval lag floor. Returns the current sequence either way; 0
// without a WAL. Callers that must stay responsive to shutdown should
// wait in short slices.
func (q *QDB) WaitForWALSeq(after uint64, timeout time.Duration) uint64 {
	if q.log == nil {
		return 0
	}
	return q.log.WaitForSeq(after, timeout)
}

// PromoteReplica turns a caught-up, sealed follower state into a live
// leader engine at the given term: RecoverCheckpoint from memory, as
// recovery is promotion from disk. The replica already holds everything
// recovery needs — store, pending set, applied watermark — so promotion
// is "open a fresh WAL positioned at the watermark, re-install the
// pending transactions, start admitting". No replay runs: the store IS
// the replayed state.
//
// st must be Sealed first (Seal-then-promote is enforced here to make
// the ordering impossible to get wrong) and opt.WALPath must name a
// fresh directory: the new WAL starts empty at the watermark, stamped
// with the new term, so the first append is fenced correctly and a
// lagging old-term shipper can never interleave. The fresh WAL holds no
// base state — callers that need crash durability for the promoted
// store must Checkpoint promptly after promotion (replica.Follower.
// Promote does, when configured with a checkpoint path).
func PromoteReplica(st *ReplicaState, term uint64, opt Options) (*QDB, error) {
	if opt.WALPath == "" {
		return nil, fmt.Errorf("core: PromoteReplica requires Options.WALPath")
	}
	q, err := st.promote(opt)
	if err != nil {
		return nil, err
	}
	if err := q.log.Position(st.AppliedSeq(), term); err != nil {
		q.Close()
		return nil, fmt.Errorf("core: promotion WAL: %w", err)
	}
	return q, nil
}

// promote seals st and hands its store to a live engine: New over the
// store, resume ID issue at the state's nextID, then re-install the
// pending set in ID order with original IDs and without re-logging (the
// records already live in the replayed log). The invariant held on the
// engine that wrote that log and the store is its exact replayed image,
// so re-admission must succeed; failure means a corrupt log or image, or
// a wrong initial database. Shared by PromoteReplica and recovery, which
// then differ only in how they position the engine's log; nothing is
// appended before they do.
func (st *ReplicaState) promote(opt Options) (*QDB, error) {
	st.Seal()
	st.mu.Lock()
	nextID := st.nextID
	pending := make([]*txn.T, 0, len(st.pending))
	for _, t := range st.pending {
		pending = append(pending, t)
	}
	st.mu.Unlock()
	sort.Slice(pending, func(i, j int) bool { return pending[i].ID < pending[j].ID })

	q, err := New(st.db, opt)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	q.nextID = nextID
	q.mu.Unlock()
	for _, t := range pending {
		if err := q.readmit(t); err != nil {
			q.Close()
			return nil, fmt.Errorf("core: re-admission of txn %d: %w", t.ID, err)
		}
	}
	return q, nil
}

// readmit re-installs one replayed pending transaction with its
// original ID, without re-logging it; promote's caller guarantees it
// admits (ErrInvariantBroken otherwise).
func (q *QDB) readmit(t *txn.T) error {
	q.admitMu.Lock()
	defer q.admitMu.Unlock()
	overlapping := q.lockOverlapping(t)
	merged := mergedTxns(overlapping, t)
	sol, ok, err := formula.SolveChain(q.view(), stripAll(merged), q.chainOpts(false))
	q.db.EndView()
	if err != nil {
		unlockPartitions(overlapping)
		return err
	}
	if !ok {
		unlockPartitions(overlapping)
		return ErrInvariantBroken
	}
	p := q.mergeLocked(overlapping)
	p.txns = merged
	p.cached = sol.Groundings
	p.version++
	q.mu.Lock()
	q.byTxn[t.ID] = p
	q.idx.add(t, p.id())
	q.mu.Unlock()
	q.admitSeq.Add(1)
	q.partVersion.Add(1)
	q.noteHighWater(p)
	p.shard.Unlock()
	return nil
}
