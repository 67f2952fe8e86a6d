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
	tables catalog
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

// Unit is one commit unit's row changes: its deletes, then its inserts.
type Unit struct {
	Inserts, Deletes []GroundFact
}

// Apply applies units in order, each one's deletes before its inserts,
// under one acquisition of the store lock, all or nothing: on the first
// failing row every unit already applied is undone and the store is left
// unchanged. The owner passes a single write as a one-unit list.
func (w *Writer) Apply(units []Unit) error {
	w.db.mu.Lock()
	defer w.db.mu.Unlock()
	return w.db.applyLocked(units)
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
	return db.tables.TableEpoch(rel)
}

// MustInsert is Insert that panics on error; for setup code.
func (db *DB) MustInsert(rel string, tup value.Tuple) {
	if err := db.Insert(rel, tup); err != nil {
		panic(err)
	}
}

// View reads the live tables, taking no lock itself, between DB.View
// and DB.EndView; it must not be used after EndView.
type View struct{ catalog }

// View takes db.mu shared and returns a view of the live tables. Writers
// wait until the matching EndView, so the view reads one committed state,
// and an evaluator re-entering it from a scan callback never asks for a
// lock it already holds. Until EndView the holder must not wait on
// anything a queued writer may hold, nor call another DB method: that
// takes the read side again, behind the queued writer.
func (db *DB) View() View {
	db.mu.RLock()
	return View{db.tables}
}

// EndView drops the read side taken by View.
func (db *DB) EndView() { db.mu.RUnlock() }

// catalog is a set of table versions by name, read without locking. It
// carries the one implementation of the Source reads: a Snapshot reads
// its pinned catalog, a View the live one while its holder keeps db.mu
// shared, and DB wraps each call in db.mu's read side.
type catalog map[string]*table

// TableEpoch returns rel's mutation counter, 0 for an unknown relation.
func (c catalog) TableEpoch(rel string) uint64 {
	if t, ok := c[rel]; ok {
		return t.epoch
	}
	return 0
}

// SchemaOf implements Source.
func (c catalog) SchemaOf(rel string) (Schema, bool) {
	t, ok := c[rel]
	if !ok {
		return Schema{}, false
	}
	return t.schema, true
}

// Len implements Source.
func (c catalog) Len(rel string) int {
	if t, ok := c[rel]; ok {
		return t.len()
	}
	return 0
}

// Scan implements Source.
func (c catalog) Scan(rel string, f func(value.Tuple) bool) {
	if t, ok := c[rel]; ok {
		t.scan(f)
	}
}

// IndexScan implements Source.
func (c catalog) IndexScan(rel string, col int, v value.Value, f func(value.Tuple) bool) {
	if t, ok := c[rel]; ok {
		t.indexScan(col, v, f)
	}
}

// IndexCount implements Source.
func (c catalog) IndexCount(rel string, col int, v value.Value) int {
	if t, ok := c[rel]; ok {
		return t.indexCount(col, v)
	}
	return 0
}

// CompositeScan implements Source.
func (c catalog) CompositeScan(rel string, ix int, key string, f func(value.Tuple) bool) {
	if t, ok := c[rel]; ok && ix < len(t.comp) {
		t.compScan(ix, key, f)
	}
}

// CompositeCount implements Source.
func (c catalog) CompositeCount(rel string, ix int, key string) int {
	if t, ok := c[rel]; ok && ix < len(t.comp) {
		return t.compCount(ix, key)
	}
	return 0
}

// Contains implements Source.
func (c catalog) Contains(rel string, tup value.Tuple) bool {
	t, ok := c[rel]
	return ok && t.contains(tup)
}

// ContainsKey implements Source.
func (c catalog) ContainsKey(rel string, key []byte) bool {
	t, ok := c[rel]
	return ok && t.containsKey(key)
}

// SchemaOf implements Source.
func (db *DB) SchemaOf(rel string) (Schema, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables.SchemaOf(rel)
}

// Len implements Source.
func (db *DB) Len(rel string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables.Len(rel)
}

// Scan implements Source. The callback runs under db.mu's read side and
// must not call any DB method: one that takes the read side again parks
// behind a queued writer, and a writer deadlocks outright. An evaluation
// that re-enters the store from its callbacks reads through a View.
func (db *DB) Scan(rel string, f func(value.Tuple) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.tables.Scan(rel, f)
}

// IndexScan implements Source; its callback is bound like Scan's.
func (db *DB) IndexScan(rel string, col int, v value.Value, f func(value.Tuple) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.tables.IndexScan(rel, col, v, f)
}

// IndexCount implements Source.
func (db *DB) IndexCount(rel string, col int, v value.Value) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables.IndexCount(rel, col, v)
}

// CompositeScan implements Source; its callback is bound like Scan's.
func (db *DB) CompositeScan(rel string, ix int, key string, f func(value.Tuple) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.tables.CompositeScan(rel, ix, key, f)
}

// CompositeCount implements Source.
func (db *DB) CompositeCount(rel string, ix int, key string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables.CompositeCount(rel, ix, key)
}

// Contains implements Source.
func (db *DB) Contains(rel string, tup value.Tuple) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables.Contains(rel, tup)
}

// ContainsKey implements Source.
func (db *DB) ContainsKey(rel string, key []byte) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables.ContainsKey(rel, key)
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
	return db.applyLocked([]Unit{{Inserts: inserts, Deletes: deletes}})
}

// undoOp reverses one applied row change: an applied insert is undone by
// deleting tup, an applied delete by inserting it back.
type undoOp struct {
	t        *table
	tup      value.Tuple
	inserted bool
}

// applyLocked is Apply's body; the caller holds mu exclusively. One undo
// log spans every unit, so a failure in any unit rolls back all of them.
func (db *DB) applyLocked(units []Unit) error {
	for _, u := range units {
		if len(u.Inserts)+len(u.Deletes) > 0 {
			// Bumped even when the batch rolls back: the compensating
			// table operations bump the per-table epochs anyway, and
			// over-counting only costs caches a spurious revalidation.
			db.epoch++
			break
		}
	}
	var buf [16]undoOp
	done := buf[:0]
	for _, u := range units {
		for _, d := range u.Deletes {
			t, ok := db.mutable(d.Rel)
			if !ok {
				undo(done)
				return fmt.Errorf("relstore: unknown relation %s", d.Rel)
			}
			if err := t.deleteTuple(d.Tuple); err != nil {
				undo(done)
				return err
			}
			done = append(done, undoOp{t: t, tup: d.Tuple})
		}
		for _, in := range u.Inserts {
			t, ok := db.mutable(in.Rel)
			if !ok {
				undo(done)
				return fmt.Errorf("relstore: unknown relation %s", in.Rel)
			}
			if err := t.insert(in.Tuple); err != nil {
				undo(done)
				return err
			}
			done = append(done, undoOp{t: t, tup: in.Tuple, inserted: true})
		}
	}
	return nil
}

// undo reverses done, newest change first.
func undo(done []undoOp) {
	for i := len(done) - 1; i >= 0; i-- {
		if op := done[i]; op.inserted {
			_ = op.t.deleteTuple(op.tup)
		} else {
			_ = op.t.insert(op.tup)
		}
	}
}

// GroundFact names a concrete tuple of a relation; the unit of updates.
type GroundFact struct {
	Rel   string
	Tuple value.Tuple
}

// String renders the fact as Rel(v1, ...).
func (g GroundFact) String() string { return g.Rel + g.Tuple.String() }
