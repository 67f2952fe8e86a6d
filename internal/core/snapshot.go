package core

import (
	"io"

	"repro/internal/logic"
	"repro/internal/relstore"
)

// Snapshot is an immutable, epoch-stamped view of the committed store —
// the collapse-free read primitive. Unlike Read, taking or querying a
// snapshot never forces pending transactions to ground (no collapse)
// and never touches the store gate after the initial pin, so snapshot
// readers cannot block appliers and appliers cannot block them; the
// price is that pending superposed transactions are simply not
// observed. Release it when done; the view stays readable afterwards
// but holding it pins the store versions it references.
type Snapshot struct {
	q  *QDB
	rs *relstore.Snapshot
}

// Snapshot pins the current committed store state under a brief
// acquisition of the read gate (ordering the view after any in-flight
// apply section) and returns it. O(tables), never O(rows).
func (q *QDB) Snapshot() *Snapshot {
	q.storeMu.RLock()
	rs := q.db.Snapshot()
	q.storeMu.RUnlock()
	return &Snapshot{q: q, rs: rs}
}

// Release unpins the snapshot. Idempotent; nil-safe.
func (s *Snapshot) Release() {
	if s != nil {
		s.rs.Release()
	}
}

// Epoch returns the store epoch the snapshot was cut at; equal epochs
// witness identical content.
func (s *Snapshot) Epoch() uint64 { return s.rs.Epoch() }

// Encode writes the snapshot's state to w in the canonical snapshot
// format: equal content yields equal bytes regardless of write history.
// The replication harness leans on this — a leader snapshot and a
// follower's EncodeState quiesced at the same WAL sequence must
// byte-compare equal. Lock-free over the pinned versions.
func (s *Snapshot) Encode(w io.Writer) error { return s.rs.Encode(w) }

// QueryAt evaluates a conjunctive query against the snapshot's frozen
// state, entirely gate-free. It never collapses superposed state and
// never blocks on appliers, so it is safe to run arbitrarily slow
// analytical reads against a snapshot while the engine grounds, admits,
// and writes at full speed.
//
// The result is a columnar row set (one column per query variable, in
// order of first occurrence), built straight from the evaluator's slot
// values: a row costs its cells, not a map.
func (q *QDB) QueryAt(s *Snapshot, query []logic.Atom) (*relstore.RowSet, error) {
	q.stats.snapshotReads.Add(1)
	return relstore.Query{Atoms: query, Planner: q.opt.Planner}.Rows(s.rs)
}

// QuerySnapshot is the one-shot collapse-free read: pin a snapshot,
// evaluate, release. The result reflects committed state only; pending
// transactions stay in superposition.
func (q *QDB) QuerySnapshot(query []logic.Atom) (*relstore.RowSet, error) {
	s := q.Snapshot()
	defer s.Release()
	return q.QueryAt(s, query)
}
