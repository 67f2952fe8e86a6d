package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/txn"
)

// Coordinator executes entangled resource transactions (§5.1): resource
// transactions carrying a PartnerTag are kept pending until the partner —
// a transaction whose Tag matches — arrives, at which point the pair is
// grounded together as a group of two (QDB.GroundGroup: the later
// partner's forward constraints hardened when jointly satisfiable).
// Transactions whose partner never arrives simply stay pending until
// another collapse cause fires; their coordination constraints were
// OPTIONAL, so they are guaranteed a resource regardless.
//
// A Coordinator wraps a QDB; submit entangled work through
// Coordinator.Submit and everything else through the QDB directly. The
// Coordinator is safe for concurrent use: its waiting registry has its
// own lock, match-or-register is atomic under it, and pair groundings run
// outside it on the engine's sharded partition locks. When a concurrent
// collapse (k-bound, read) beats a pair grounding to one of the partners,
// the survivor is collapsed with its coordination constraints hardened if
// at all possible.
type Coordinator struct {
	qdb *QDB
	// EagerCoordination extends the paper's policy: when a transaction
	// arrives whose partner was ALREADY executed (for example force-
	// grounded by the k-bound), collapse it immediately if a grounding
	// satisfying all its coordination constraints exists — deferral can
	// only lose the adjacent resource. Off by default, because always-
	// eager lost on the repository benchmark (5 alternating pairs, 15 s,
	// 2 cores): paper_mixed op_p50_us 26.2 → 32.4 µs (+23.7 %, worse in
	// 5/5) and ops_per_s 23,544 → 22,218 (−5.6 %, 5/5), for
	// coordination_ratio 0.636 → 0.652; booking_wire coordination_ratio
	// 0.843 → 0.871 (5/5), ops_per_s unresolved. internal/bench sets it
	// per stream; the facade exposes it as Coordinator.SetEager.
	EagerCoordination bool

	mu sync.Mutex
	// waiting maps a Tag to the pending transaction IDs carrying it whose
	// partners have not yet arrived.
	waiting map[string][]int64
	// partnerOf maps a pending ID to the PartnerTag it waits for.
	partnerOf map[int64]string
	// swept is len(partnerOf) after the last sweep (pruneLocked).
	swept int
	// coordinated counts pairs grounded together.
	coordinated int
}

// NewCoordinator wraps q.
func NewCoordinator(q *QDB) *Coordinator {
	return &Coordinator{
		qdb:       q,
		waiting:   make(map[string][]int64),
		partnerOf: make(map[int64]string),
	}
}

// QDB returns the wrapped quantum database.
func (c *Coordinator) QDB() *QDB { return c.qdb }

// CoordinatedPairs returns how many entangled pairs this coordinator has
// grounded together since construction.
func (c *Coordinator) CoordinatedPairs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coordinated
}

// Submit admits t. If t carries a PartnerTag and a pending transaction
// tagged with it is waiting for t.Tag, the pair is grounded together
// immediately after commit, per the paper's policy: "an entangled
// resource transaction waiting for its partner is finally executed as
// soon as its partner arrives". The commit decision (accept/reject) is
// exactly QDB.Submit's.
func (c *Coordinator) Submit(tx *txn.T) (int64, error) {
	id, err := c.qdb.Submit(tx)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.pruneLocked()
	if tx.PartnerTag == "" {
		c.mu.Unlock()
		return id, nil
	}
	// Look for a pending partner: tagged PartnerTag, waiting for our Tag.
	// Match-or-register is atomic under mu, so of two concurrently
	// arriving partners exactly one registers and the other finds it.
	if partnerID, ok := c.takeWaitingLocked(tx.PartnerTag, tx.Tag); ok {
		c.mu.Unlock()
		return id, c.groundFoundPair(partnerID, id)
	}
	if c.EagerCoordination {
		// No pending partner. If the partner was already executed (e.g.
		// force-grounded by the k-bound before we arrived), staying in a
		// quantum state buys nothing: the seat next to the partner can
		// only be lost. Collapse now if a fully-coordinated grounding
		// exists. The grounding runs outside mu; re-check for a partner
		// that registered meanwhile before registering ourselves.
		c.mu.Unlock()
		done, err := c.qdb.GroundCoordinated(id)
		if err != nil && !errors.Is(err, ErrUnknownTxn) {
			return id, err
		}
		c.mu.Lock()
		if done {
			c.coordinated++
			c.mu.Unlock()
			return id, nil
		}
		if partnerID, ok := c.takeWaitingLocked(tx.PartnerTag, tx.Tag); ok {
			c.mu.Unlock()
			return id, c.groundFoundPair(partnerID, id)
		}
	}
	// Partner genuinely not here yet: register as waiting.
	c.waiting[tx.Tag] = append(c.waiting[tx.Tag], id)
	c.partnerOf[id] = tx.PartnerTag
	c.mu.Unlock()
	return id, nil
}

// groundFoundPair grounds a matched pair. When a concurrent collapse
// already executed one partner (k-bound or read racing the match), the
// survivor is collapsed coordinated-if-possible instead — without
// counting the pair as coordinated: CoordinatedPairs reports pairs
// grounded TOGETHER, and inflating it under collapse races would skew
// the Table 2 metric.
func (c *Coordinator) groundFoundPair(partnerID, id int64) error {
	err := c.qdb.GroundGroup([]int64{partnerID, id})
	if err != nil {
		if !errors.Is(err, ErrUnknownTxn) {
			return fmt.Errorf("core: grounding entangled pair (%d, %d): %w", partnerID, id, err)
		}
		for _, survivor := range []int64{partnerID, id} {
			if _, err := c.qdb.GroundCoordinated(survivor); err != nil && !errors.Is(err, ErrUnknownTxn) {
				return err
			}
		}
		return nil
	}
	c.mu.Lock()
	c.coordinated++
	c.mu.Unlock()
	return nil
}

// takeWaitingLocked pops the oldest pending transaction tagged tag that
// waits for wantsPartner, dropping the entries it finds grounded on the
// way. Caller holds mu.
func (c *Coordinator) takeWaitingLocked(tag, wantsPartner string) (int64, bool) {
	ids := c.waiting[tag]
	kept := ids[:0]
	for i, id := range ids {
		if c.partnerOf[id] != wantsPartner {
			kept = append(kept, id)
			continue
		}
		delete(c.partnerOf, id)
		if !c.qdb.isPending(id) {
			continue // grounded by a read or the k-bound meanwhile
		}
		c.setWaitingLocked(tag, append(kept, ids[i+1:]...))
		return id, true
	}
	c.setWaitingLocked(tag, kept)
	return 0, false
}

func (c *Coordinator) setWaitingLocked(tag string, ids []int64) {
	if len(ids) == 0 {
		delete(c.waiting, tag)
	} else {
		c.waiting[tag] = ids
	}
}

// pruneSlack is how far the registry may grow past twice its size after
// the last sweep before pruneLocked sweeps again.
const pruneSlack = 64

// pruneLocked drops waiting entries whose transactions were grounded by
// other causes (k-bound, reads) so the maps do not grow without bound.
// It sweeps only once partnerOf has doubled (plus pruneSlack) since the
// last sweep, so a sweep's cost is paid for by the registrations before
// it: amortised O(1) per submit. Stale entries left in between are never
// matched — IDs are not reused, and takeWaitingLocked skips (and drops)
// any ID no longer pending. Caller holds mu.
func (c *Coordinator) pruneLocked() {
	if len(c.partnerOf) < 2*c.swept+pruneSlack {
		return
	}
	for tag, ids := range c.waiting {
		kept := ids[:0]
		for _, id := range ids {
			if c.qdb.isPending(id) {
				kept = append(kept, id)
			} else {
				delete(c.partnerOf, id)
			}
		}
		c.setWaitingLocked(tag, kept)
	}
	c.swept = len(c.partnerOf)
}
