package relstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// Source is a read view of a relational state. Both *DB and *Overlay
// implement it; the query evaluator and the quantum layer work against
// Source so they can run on the real store or on a hypothetical state
// (base store plus pending updates).
type Source interface {
	// SchemaOf returns the schema of the named relation.
	SchemaOf(rel string) (Schema, bool)
	// Len returns the (possibly estimated) number of rows in rel.
	Len(rel string) int
	// Scan calls f for each row until f returns false.
	Scan(rel string, f func(value.Tuple) bool)
	// IndexScan calls f for each row whose column col equals v.
	IndexScan(rel string, col int, v value.Value, f func(value.Tuple) bool)
	// IndexCount estimates the number of rows with column col equal to v.
	IndexCount(rel string, col int, v value.Value) int
	// CompositeScan calls f for each row whose projection onto the ix-th
	// declared composite index (Schema.Indexes[ix]) has the given
	// projection key (value.Tuple.Key of the indexed columns).
	CompositeScan(rel string, ix int, key string, f func(value.Tuple) bool)
	// CompositeCount estimates the rows matching a composite-index key.
	CompositeCount(rel string, ix int, key string) int
	// Contains reports whether the exact tuple is present.
	Contains(rel string, tup value.Tuple) bool
	// ContainsKey reports whether any row with the given primary-key
	// bytes (as produced by Schema.appendKeyOf) is present. The key is
	// passed as bytes so callers can build it in a stack buffer without
	// materializing a string per probe.
	ContainsKey(rel string, key []byte) bool
}

// DB is an in-memory relational database: a catalog of keyed, hash-indexed
// tables. All exported methods are safe for concurrent use.
//
// A DB can be owned (Own): from then on its exported row mutators refuse
// with ErrOwned and the owner's Writer is the only way to change a row.
// Schema changes (CreateTable) stay open.
//
// The database maintains monotone epoch counters — one per table plus a
// store-wide one — bumped on every committed mutation. Epochs never
// decrease and never reset within a DB instance, so an unchanged epoch
// proves unchanged content: the quantum layer keys its cross-solve
// solution caches on them (Epoch, TableEpoch) and invalidates by
// comparison instead of by explicit hooks on every write path.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
	epoch  uint64
	// snapsLive counts snapshots taken and not yet released; mutators
	// consult per-table pin counts (table.snapRefs) to decide whether a
	// copy-on-write clone is needed. Atomic like the pins: Snapshot holds
	// mu shared and Release holds nothing. See mvcc.go.
	snapsLive atomic.Int64
	// stamps numbers table versions (version.stamp); guarded by mu held
	// exclusively. cow counts what writers copied on behalf of other
	// versions.
	stamps uint64
	cow    cowStats
	// owned is set once, by Own under mu; see lockUnowned.
	owned atomic.Bool
}

// ErrOwned is returned by Insert, Delete and Apply on a store an owner
// has taken with Own; the write changes nothing.
var ErrOwned = errors.New("relstore: store is owned; write through its owner")

// Writer is the owner's handle on an owned store: the one way left to
// change its rows.
type Writer struct{ db *DB }

// Own takes the store's write latch and returns the owner's Writer. It
// fails with ErrOwned if the store already has an owner; ownership is
// never released.
func (db *DB) Own() (*Writer, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.owned.CompareAndSwap(false, true) {
		return nil, ErrOwned
	}
	return &Writer{db: db}, nil
}

// lockUnowned takes mu exclusively for a row mutator and reports true,
// or reports false without locking if the store is owned. The latch is
// read before locking too, so a refused write never queues on mu, where
// it would block readers re-entering the read side.
func (db *DB) lockUnowned() bool {
	if db.owned.Load() {
		return false
	}
	db.mu.Lock()
	if db.owned.Load() {
		db.mu.Unlock()
		return false
	}
	return true
}

// Apply is DB.Apply for the store's owner.
func (w *Writer) Apply(inserts, deletes []GroundFact) error {
	w.db.mu.Lock()
	defer w.db.mu.Unlock()
	return w.db.applyLocked(inserts, deletes)
}

// newVersion returns a fresh stamp for a table version of this database.
// Callers hold db.mu exclusively (or own a database nobody else sees yet).
func (db *DB) newVersion() version {
	db.stamps++
	return version{stamp: db.stamps, stats: &db.cow}
}

// CowStats reports how many pages, shards and buckets writers have
// copied because another version (one pinned by a snapshot, or left
// behind by one) still shared them, and the bytes those copies moved:
// the write amplification snapshots cause.
func (db *DB) CowStats() (copies, bytes int64) {
	return db.cow.copies.Load(), db.cow.bytes.Load()
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*table)}
}

// CreateTable registers a new relation. It fails if the schema is invalid
// or the name is taken.
func (db *DB) CreateTable(s Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[s.Name]; ok {
		return fmt.Errorf("relstore: relation %s already exists", s.Name)
	}
	db.tables[s.Name] = newTable(s, db.newVersion())
	return nil
}

// MustCreateTable is CreateTable that panics on error; for test and
// workload setup code.
func (db *DB) MustCreateTable(s Schema) {
	if err := db.CreateTable(s); err != nil {
		panic(err)
	}
}

// Relations returns the sorted names of all relations.
func (db *DB) Relations() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Insert adds a tuple; duplicate keys are an error (set semantics).
func (db *DB) Insert(rel string, tup value.Tuple) error {
	if !db.lockUnowned() {
		return ErrOwned
	}
	defer db.mu.Unlock()
	t, ok := db.mutable(rel)
	if !ok {
		return fmt.Errorf("relstore: unknown relation %s", rel)
	}
	if err := t.insert(tup); err != nil {
		return err
	}
	db.epoch++
	return nil
}

// Delete removes the exact tuple; deleting an absent tuple is an error.
func (db *DB) Delete(rel string, tup value.Tuple) error {
	if !db.lockUnowned() {
		return ErrOwned
	}
	defer db.mu.Unlock()
	t, ok := db.mutable(rel)
	if !ok {
		return fmt.Errorf("relstore: unknown relation %s", rel)
	}
	if err := t.deleteTuple(tup); err != nil {
		return err
	}
	db.epoch++
	return nil
}

// Epoch returns the store-wide mutation counter: it increases on every
// committed Insert, Delete, and non-empty Apply, and never decreases or
// resets within a DB instance. Equal epochs witness an unchanged store.
func (db *DB) Epoch() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.epoch
}

// TableEpoch returns the named relation's mutation counter (0 for an
// unknown relation). Per-table epochs let caches over a subset of the
// catalog survive writes to unrelated relations: a cache entry whose
// relevant tables all report unchanged epochs is still valid.
func (db *DB) TableEpoch(rel string) uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[rel]
	if !ok {
		return 0
	}
	return t.epoch
}

// MustInsert is Insert that panics on error; for setup code.
func (db *DB) MustInsert(rel string, tup value.Tuple) {
	if err := db.Insert(rel, tup); err != nil {
		panic(err)
	}
}

// SchemaOf implements Source.
func (db *DB) SchemaOf(rel string) (Schema, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[rel]
	if !ok {
		return Schema{}, false
	}
	return t.schema, true
}

// Len implements Source.
func (db *DB) Len(rel string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[rel]
	if !ok {
		return 0
	}
	return t.len()
}

// Scan implements Source. The callback runs under a read lock; it must not
// call back into the DB's writing methods.
func (db *DB) Scan(rel string, f func(value.Tuple) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.tables[rel]; ok {
		t.scan(f)
	}
}

// IndexScan implements Source.
func (db *DB) IndexScan(rel string, col int, v value.Value, f func(value.Tuple) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.tables[rel]; ok {
		t.indexScan(col, v, f)
	}
}

// IndexCount implements Source.
func (db *DB) IndexCount(rel string, col int, v value.Value) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.tables[rel]; ok {
		return t.indexCount(col, v)
	}
	return 0
}

// CompositeScan implements Source.
func (db *DB) CompositeScan(rel string, ix int, key string, f func(value.Tuple) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.tables[rel]; ok && ix < len(t.comp) {
		t.compScan(ix, key, f)
	}
}

// CompositeCount implements Source.
func (db *DB) CompositeCount(rel string, ix int, key string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.tables[rel]; ok && ix < len(t.comp) {
		return t.compCount(ix, key)
	}
	return 0
}

// Contains implements Source.
func (db *DB) Contains(rel string, tup value.Tuple) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[rel]
	return ok && t.contains(tup)
}

// ContainsKey implements Source.
func (db *DB) ContainsKey(rel string, key []byte) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[rel]
	return ok && t.containsKey(key)
}

// KeyOf computes the primary-key string of tup under rel's schema.
func (db *DB) KeyOf(rel string, tup value.Tuple) (string, error) {
	sch, ok := db.SchemaOf(rel)
	if !ok {
		return "", fmt.Errorf("relstore: unknown relation %s", rel)
	}
	return sch.keyOf(tup), nil
}

// All returns every tuple of rel, in unspecified order.
func (db *DB) All(rel string) []value.Tuple {
	var out []value.Tuple
	db.Scan(rel, func(t value.Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out
}

// Clone returns a deep copy of the database (schemas and rows), unowned
// even when db is owned. Used by the benchmark harness to replay
// identical initial states.
func (db *DB) Clone() *DB {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c := NewDB()
	for n, t := range db.tables {
		c.tables[n] = t.clone(c.newVersion())
	}
	c.epoch = db.epoch
	return c
}

// Apply performs a batch of inserts and deletes atomically: either all
// succeed or the database is left unchanged.
func (db *DB) Apply(inserts, deletes []GroundFact) error {
	if !db.lockUnowned() {
		return ErrOwned
	}
	defer db.mu.Unlock()
	return db.applyLocked(inserts, deletes)
}

// applyLocked is Apply's body; the caller holds mu exclusively.
func (db *DB) applyLocked(inserts, deletes []GroundFact) error {
	if len(inserts)+len(deletes) > 0 {
		// Bumped even when the batch rolls back: the compensating table
		// operations bump the per-table epochs anyway, and over-counting
		// only costs caches a spurious revalidation.
		db.epoch++
	}
	var done []func()
	undo := func() {
		for i := len(done) - 1; i >= 0; i-- {
			done[i]()
		}
	}
	for _, d := range deletes {
		t, ok := db.mutable(d.Rel)
		if !ok {
			undo()
			return fmt.Errorf("relstore: unknown relation %s", d.Rel)
		}
		tup := d.Tuple
		if err := t.deleteTuple(tup); err != nil {
			undo()
			return err
		}
		done = append(done, func() { _ = t.insert(tup) })
	}
	for _, in := range inserts {
		t, ok := db.mutable(in.Rel)
		if !ok {
			undo()
			return fmt.Errorf("relstore: unknown relation %s", in.Rel)
		}
		tup := in.Tuple
		if err := t.insert(tup); err != nil {
			undo()
			return err
		}
		done = append(done, func() { _ = t.deleteTuple(tup) })
	}
	return nil
}

// GroundFact names a concrete tuple of a relation; the unit of updates.
type GroundFact struct {
	Rel   string
	Tuple value.Tuple
}

// String renders the fact as Rel(v1, ...).
func (g GroundFact) String() string { return g.Rel + g.Tuple.String() }
