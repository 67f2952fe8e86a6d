package relstore

import (
	"bufio"
	"io"

	"repro/internal/value"
)

// Multiversioning. A Snapshot pins the exact table versions live at the
// moment it was taken; mutators never touch a pinned version. Instead,
// the first committed mutation of a pinned relation installs a successor
// version in the catalog (DB.mutable) and all further writes go to the
// successor, so a snapshot's view stays frozen without the reader
// holding any lock. A successor shares every page of its predecessor —
// row pages, primary-key shards, index buckets — by pointer, and a write
// copies just the pages it touches (the owner-stamp rule, cow.go).
// Tuples themselves are immutable once stored (insert clones its
// argument) and are shared between versions. Version garbage collection
// is the Go GC: when the last snapshot pinning a version is released and
// the catalog has moved on, the pages only it referenced are collected.
//
// Cost model: with no snapshots live the write path is unchanged except
// for one integer check per mutated relation. While a snapshot is live,
// the first mutation of each pinned relation copies the version's roots
// (O(indexes), independent of the row count) and then, like every later
// write, the pages on the paths it touches whose stamp is not the
// successor's: one row page, one primary-key shard, and per index one
// shard and one bucket page — a few kilobytes, whatever the table's
// size. DB.CowStats counts those copies.

// Snapshot is an immutable, epoch-stamped view of the database at a
// single committed state. It implements Source, so the query evaluator,
// the solver, and Prepared queries run against it unchanged — entirely
// lock-free, since the underlying versions can no longer change.
//
// A Snapshot pins memory (the table versions it references) until
// Release is called; Release is idempotent and safe for concurrent use.
// Reads after Release are still safe — the view simply keeps the pinned
// versions alive — but holding snapshots longer than necessary delays
// version reclamation and keeps writers copying the pages they touch.
type Snapshot struct {
	db     *DB
	tables map[string]*table
	epoch  uint64
	// released is guarded by db.mu, making Release idempotent even when
	// called from multiple goroutines.
	released bool
}

// Snapshot returns an O(1)-ish view of the current committed state: it
// copies the catalog map and pins each table version with a reference
// count, never copying rows. Relations created after the snapshot is
// taken are not visible in it.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	tabs := make(map[string]*table, len(db.tables))
	for n, t := range db.tables {
		t.snapRefs++
		tabs[n] = t
	}
	db.snapsLive++
	return &Snapshot{db: db, tables: tabs, epoch: db.epoch}
}

// SnapshotsLive reports how many snapshots are currently pinned (taken
// and not yet released).
func (db *DB) SnapshotsLive() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.snapsLive
}

// Release unpins the snapshot's table versions. Idempotent; nil-safe.
// The Snapshot remains readable afterwards, but writers stop paying the
// copy-on-write cost for its versions.
func (s *Snapshot) Release() {
	if s == nil {
		return
	}
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if s.released {
		return
	}
	s.released = true
	for _, t := range s.tables {
		t.snapRefs--
	}
	s.db.snapsLive--
}

// Epoch returns the store-wide epoch at the moment the snapshot was
// taken. Two snapshots with equal epochs witness identical content.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Encode serializes the snapshot in EncodeSnapshot's format. Unlike
// DB.EncodeSnapshot it takes no locks: the pinned versions are frozen,
// so serialization can run concurrently with live mutations — this is
// what makes fuzzy checkpoints possible.
func (s *Snapshot) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	if err := encodeTables(bw, s.tables); err != nil {
		return err
	}
	return bw.Flush()
}

// SchemaOf implements Source.
func (s *Snapshot) SchemaOf(rel string) (Schema, bool) {
	t, ok := s.tables[rel]
	if !ok {
		return Schema{}, false
	}
	return t.schema, true
}

// Len implements Source.
func (s *Snapshot) Len(rel string) int {
	t, ok := s.tables[rel]
	if !ok {
		return 0
	}
	return t.len()
}

// Scan implements Source.
func (s *Snapshot) Scan(rel string, f func(value.Tuple) bool) {
	if t, ok := s.tables[rel]; ok {
		t.scan(f)
	}
}

// IndexScan implements Source.
func (s *Snapshot) IndexScan(rel string, col int, v value.Value, f func(value.Tuple) bool) {
	if t, ok := s.tables[rel]; ok {
		t.indexScan(col, v, f)
	}
}

// IndexCount implements Source.
func (s *Snapshot) IndexCount(rel string, col int, v value.Value) int {
	if t, ok := s.tables[rel]; ok {
		return t.indexCount(col, v)
	}
	return 0
}

// CompositeScan implements Source.
func (s *Snapshot) CompositeScan(rel string, ix int, key string, f func(value.Tuple) bool) {
	if t, ok := s.tables[rel]; ok && ix < len(t.comp) {
		t.compScan(ix, key, f)
	}
}

// CompositeCount implements Source.
func (s *Snapshot) CompositeCount(rel string, ix int, key string) int {
	if t, ok := s.tables[rel]; ok && ix < len(t.comp) {
		return t.compCount(ix, key)
	}
	return 0
}

// Contains implements Source.
func (s *Snapshot) Contains(rel string, tup value.Tuple) bool {
	t, ok := s.tables[rel]
	return ok && t.contains(tup)
}

// ContainsKey implements Source.
func (s *Snapshot) ContainsKey(rel string, key []byte) bool {
	t, ok := s.tables[rel]
	return ok && t.containsKey(key)
}

// mutable returns the named table's writable version: the catalog entry
// itself when nothing pins it, or a freshly installed copy-on-write
// successor when live snapshots hold the current version. Callers must
// hold db.mu exclusively.
func (db *DB) mutable(rel string) (*table, bool) {
	t, ok := db.tables[rel]
	if !ok {
		return nil, false
	}
	if t.snapRefs > 0 {
		t = t.cowClone(db.newVersion())
		db.tables[rel] = t
	}
	return t, true
}
