package core

import (
	"repro/internal/logic"
	"repro/internal/relstore"
)

// Snapshot pins the current committed store state (relstore pins under
// db.mu shared, ordering the view after any in-flight apply) and returns
// it as an immutable, epoch-stamped view — the collapse-free read
// primitive. O(tables), never O(rows). Unlike Read, taking or querying a
// snapshot never forces pending transactions to ground (no collapse) and
// takes no store lock after the initial pin, so snapshot readers cannot
// block appliers and appliers cannot block them; the price is that
// pending superposed transactions are simply not observed. Release it
// when done; the view stays readable afterwards but holding it pins the
// store versions it references.
func (q *QDB) Snapshot() *relstore.Snapshot { return q.db.Snapshot() }

// QueryAt evaluates a conjunctive query against the snapshot's frozen
// state, entirely lock-free. It never collapses superposed state and
// never blocks on appliers, so it is safe to run arbitrarily slow
// analytical reads against a snapshot while the engine grounds, admits,
// and writes at full speed.
//
// The result is a columnar row set (one column per query variable, in
// order of first occurrence), built straight from the evaluator's slot
// values: a row costs its cells, not a map.
func (q *QDB) QueryAt(s *relstore.Snapshot, query []logic.Atom) (*relstore.RowSet, error) {
	q.stats.snapshotReads.Add(1)
	return relstore.Query{Atoms: query, Planner: q.opt.Planner}.Rows(s)
}
