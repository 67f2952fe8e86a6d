package relstore

import (
	"bufio"
	"io"
	"sync/atomic"
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
	catalog // the pinned versions; its methods are the Source reads
	db      *DB
	epoch   uint64
	// released makes Release idempotent even when called from multiple
	// goroutines.
	released atomic.Bool
}

// Snapshot returns an O(1)-ish view of the current committed state: it
// copies the catalog map and pins each table version with a reference
// count, never copying rows. Relations created after the snapshot is
// taken are not visible in it.
//
// It holds db.mu shared, not exclusively: the pins are atomic, and the
// read side already excludes every writer, so no mutator can test a pin
// count while it is being raised. Taking the write side would park a
// Scan callback that reads the DB again behind the waiting Snapshot — a
// deadlock.
// Writers are the only exclusive holders of db.mu.
func (db *DB) Snapshot() *Snapshot {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tabs := make(catalog, len(db.tables))
	for n, t := range db.tables {
		t.snapRefs.Add(1)
		tabs[n] = t
	}
	db.snapsLive.Add(1)
	return &Snapshot{catalog: tabs, db: db, epoch: db.epoch}
}

// SnapshotsLive reports how many snapshots are currently pinned (taken
// and not yet released).
func (db *DB) SnapshotsLive() int {
	return int(db.snapsLive.Load())
}

// Release unpins the snapshot's table versions. Idempotent; nil-safe;
// takes no lock. The Snapshot remains readable afterwards, but writers
// stop paying the copy-on-write cost for its versions. A writer racing a
// Release may still see the pin and clone once more — harmless.
func (s *Snapshot) Release() {
	if s == nil || !s.released.CompareAndSwap(false, true) {
		return
	}
	for _, t := range s.catalog {
		t.snapRefs.Add(-1)
	}
	s.db.snapsLive.Add(-1)
}

// Epoch returns the store-wide epoch at the moment the snapshot was
// taken. Two snapshots with equal epochs witness identical content.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Encode serializes the snapshot in the canonical snapshot format
// (snapshot.go) that DecodeSnapshot reads. It takes no store lock: the
// pinned versions are frozen, so serialization can run concurrently with
// live mutations — this is what makes fuzzy checkpoints possible.
//
// Encoding is incremental. Encoding a relation turns on its change
// journal, and each Encode keeps the row sections it produced, so a
// later one sorts only the keys written in between and merges them in.
// The bytes are those a full encode writes.
func (s *Snapshot) Encode(w io.Writer) error {
	for _, t := range s.catalog {
		t.enc.journaling.Store(true)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	if err := encodeTables(bw, s.catalog); err != nil {
		return err
	}
	return bw.Flush()
}

// mutable returns the named table's writable version: the catalog entry
// itself when nothing pins it, or a freshly installed copy-on-write
// successor when live snapshots hold the current version. Once the
// relation has been encoded, it also starts the version's change
// journal if it has none. Callers must hold db.mu exclusively.
func (db *DB) mutable(rel string) (*table, bool) {
	t, ok := db.tables[rel]
	if !ok {
		return nil, false
	}
	if t.snapRefs.Load() > 0 {
		t = t.cowClone(db.newVersion())
		db.tables[rel] = t
	}
	if t.journal == nil && t.enc.journaling.Load() {
		t.journal, t.jbase = make([]string, 0, 64), t.epoch
	}
	return t, true
}
