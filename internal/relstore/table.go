package relstore

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"unsafe"

	"repro/internal/value"
)

// ErrDuplicateKey wraps insert failures caused by an existing row with
// the same primary key; ErrAbsentTuple wraps deletes of rows that are not
// present. WAL recovery matches on them to make fact redo idempotent (a
// logged-but-possibly-applied mutation re-applies as a detected no-op);
// everything else treats them as the fail-closed set-semantics errors
// they are.
var (
	ErrDuplicateKey = errors.New("relstore: duplicate key")
	ErrAbsentTuple  = errors.New("relstore: tuple not present")
)

// table is one version of the physical storage of one relation. Rows are
// insertion-ordered (so scans enumerate candidates deterministically
// instead of in Go map order — grounding choice and the IS baseline's
// seat choice both follow scan order, and experiment runs must be
// reproducible); a primary hash index maps key strings to rows, and one
// secondary hash index per column (plus the declared composite ones)
// maps a value to the ordered bucket of tuples carrying it.
//
// Every container is a page-granular copy-on-write structure (cow.go),
// so a version is a set of roots: cowClone copies the roots, and a write
// copies only the pages, shards and buckets it touches.
type table struct {
	schema Schema
	// version is the stamp this version's mutators write under.
	version
	// rows holds the live tuples, insertion-ordered; deleteTuple
	// swap-removes, so the order is a deterministic function of the
	// operation history (never of map iteration).
	rows pvec[value.Tuple]
	// pos maps a primary-key string to the tuple's row id: a small
	// integer that stays put for the row's lifetime and indexes locs.
	pos cowMap[int32]
	// locs holds, per row id, stride positions: where the tuple sits in
	// rows, then in its bucket of each column index, then of each
	// composite index — what makes every swap-remove O(1). A free row
	// id's first entry links to the next free id.
	locs    pvec[int32]
	stride  int
	freeRow int32 // head of the free row-id list, -1 when empty
	// index[c] maps the binary key of the value in column c to the bucket
	// of tuples holding it.
	index []cowMap[*bucket]
	// comp[i] is the composite index for schema.Indexes[i], keyed by the
	// projection key of the indexed columns.
	comp []cowMap[*bucket]
	// epoch counts committed mutations of this relation (inserts and
	// deletes, including the compensating operations of a rolled-back
	// Apply — over-counting only invalidates caches spuriously, never
	// misses a change). Cross-solve caches key their entries on it: an
	// unchanged epoch proves the relation's content is unchanged.
	epoch uint64
	// journal, while non-nil, holds the primary key of every mutation
	// since epoch jbase: journal[i] is the key mutation jbase+i+1
	// changed, so len(journal) == epoch-jbase. An incremental encode
	// merges those keys into a cached encoding (snapshot.go). Only the
	// writable version appends; a pinned version's slice header is
	// frozen, and its successor, sharing the backing array, writes only
	// past that length.
	journal []string
	jbase   uint64
	// enc is the relation's cached encoding, shared by all its versions.
	enc *encCache
	// snapRefs counts live snapshots pinning this exact version. Pins are
	// taken under the owning DB's mu held shared and dropped with no lock
	// at all; mutators read it under mu held exclusively, so no pin can
	// appear mid-write. While nonzero the version is immutable: mutators
	// go through DB.mutable, which installs a copy-on-write successor in
	// the catalog and leaves this version to its snapshots. A pointer, so
	// cowClone's struct copy starts its successor at a fresh count.
	snapRefs *atomic.Int32
}

// bucket is the insertion-ordered set of tuples sharing one index key,
// with swap-remove; iterating it is deterministic given the operation
// history. It holds the tuples themselves, so an index scan reads no
// other structure.
type bucket struct {
	stamp uint64
	tups  pvec[value.Tuple]
}

func newTable(s Schema, v version) *table {
	t := &table{
		schema:   s,
		version:  v,
		pos:      newCowMap[int32](&v),
		stride:   1 + s.Arity() + len(s.Indexes),
		freeRow:  -1,
		index:    make([]cowMap[*bucket], s.Arity()),
		comp:     make([]cowMap[*bucket], len(s.Indexes)),
		snapRefs: new(atomic.Int32),
		enc:      new(encCache),
	}
	for i := range t.index {
		t.index[i] = newCowMap[*bucket](&v)
	}
	for i := range t.comp {
		t.comp[i] = newCowMap[*bucket](&v)
	}
	return t
}

// cowClone returns a successor version writing under v: it shares every
// page with t and copies what it touches.
func (t *table) cowClone(v version) *table {
	c := *t
	c.version = v
	c.snapRefs = new(atomic.Int32)
	c.index = append([]cowMap[*bucket](nil), t.index...)
	c.comp = append([]cowMap[*bucket](nil), t.comp...)
	return &c
}

// openBucket returns the bucket for key in m, writable under t's stamp,
// creating it if absent.
func (t *table) openBucket(m *cowMap[*bucket], key []byte) *bucket {
	h := hashBytes(key)
	s := m.own(&t.version, h)
	i := find(s, h, key)
	if i < 0 {
		b := &bucket{stamp: t.stamp}
		m.put(&t.version, h, string(key), b)
		return b
	}
	b := s.slots[i].val
	if b.stamp != t.stamp {
		c := *b
		c.stamp = t.stamp
		b = &c
		s.slots[i].val = b
		t.copied(int(unsafe.Sizeof(c)))
	}
	return b
}

// setLoc records that tup now sits at position at in the structure
// numbered which (0 rows, 1+c column c's bucket, 1+arity+i composite i).
func (t *table) setLoc(tup value.Tuple, which, at int) {
	var kb [64]byte
	k := t.schema.appendKeyOf(kb[:0], tup)
	rid, _ := t.pos.get(k)
	t.locs.set(&t.version, int(rid)*t.stride+which, int32(at))
}

func (t *table) insert(tup value.Tuple) error {
	if len(tup) != t.schema.Arity() {
		return fmt.Errorf("relstore: %s: arity %d tuple into %d-column relation",
			t.schema.Name, len(tup), t.schema.Arity())
	}
	k := t.schema.keyOf(tup)
	h := hashString(k)
	if _, exists := t.pos.getHashed(h, k); exists {
		return fmt.Errorf("%w: %s: %v", ErrDuplicateKey, t.schema.Name, tup)
	}
	tup = tup.Clone()
	v := &t.version
	rid := t.freeRow
	if rid >= 0 {
		t.freeRow = t.locs.at(int(rid) * t.stride)
	} else {
		rid = int32(t.locs.n / t.stride)
		for i := 0; i < t.stride; i++ {
			t.locs.push(v, 0)
		}
	}
	loc := int(rid) * t.stride
	t.locs.set(v, loc, int32(t.rows.n))
	t.rows.push(v, tup)
	t.pos.put(v, h, k, rid)
	// Bucket keys are only materialized as strings when a bucket is first
	// created; existing buckets are found via the stack buffer.
	var kb [64]byte
	for c, val := range tup {
		t.addToBucket(&t.index[c], val.AppendBinary(kb[:0]), tup, loc+1+c)
	}
	for i, cols := range t.schema.Indexes {
		t.addToBucket(&t.comp[i], tup.AppendKey(kb[:0], cols), tup, loc+1+len(tup)+i)
	}
	t.epoch++
	if t.journal != nil {
		t.note(k)
	}
	return nil
}

// journalSlack is how far a journal may outgrow its table's row count
// before it is dropped: past about one entry per row, merging the
// changed keys costs what a full sort does, and the journal would only
// grow on a store that is no longer encoded. The floor keeps small
// tables from dropping their journal on every burst of churn.
const journalSlack = 1024

// note journals key k for the mutation that just bumped the epoch; t
// has a journal. Before the journal grows, or when it reaches its bound,
// the entries the cached encoding already covers are cut off into a
// fresh array (the old one may be shared with pinned versions). A
// journal still past its bound is dropped, which sends the next encode
// back to a full sort; DB.mutable starts a fresh one at the next write.
func (t *table) note(k string) {
	bound := t.rows.n + journalSlack
	if len(t.journal) == cap(t.journal) || len(t.journal) >= bound {
		if c := t.enc.cur.Load(); c != nil && c.epoch > t.jbase {
			live := t.journal[c.epoch-t.jbase:]
			t.journal = append(make([]string, 0, max(64, 2*len(live))), live...)
			t.jbase = c.epoch
		}
		if len(t.journal) >= bound {
			t.journal = nil
			return
		}
	}
	t.journal = append(t.journal, k)
}

// addToBucket appends tup to the bucket for key in m and records its
// position there at locs[loc].
func (t *table) addToBucket(m *cowMap[*bucket], key []byte, tup value.Tuple, loc int) {
	b := t.openBucket(m, key)
	t.locs.set(&t.version, loc, int32(b.tups.n))
	b.tups.push(&t.version, tup)
}

// deleteTuple removes the row whose key matches tup's key. The full tuple
// must also match, mirroring DELETE of a specific row.
func (t *table) deleteTuple(tup value.Tuple) error {
	k := t.schema.keyOf(tup)
	h := hashString(k)
	rid, ok := t.pos.getHashed(h, k)
	if !ok {
		return fmt.Errorf("%w: %s: delete of absent tuple %v", ErrAbsentTuple, t.schema.Name, tup)
	}
	loc := int(rid) * t.stride
	at := int(t.locs.at(loc))
	cur := t.rows.at(at)
	if !cur.Equal(tup) {
		// The key exists but the exact tuple does not: still ErrAbsentTuple
		// (that is literally the situation), which also keeps WAL redo
		// idempotent when a logged delete was superseded by a later insert
		// under the same key — replaying insert(k,v1); delete(k,v1);
		// insert(k,v2) over a store already at (k,v2) must skip all three,
		// not fail on the middle one.
		return fmt.Errorf("%w: %s: delete of %v does not match stored %v",
			ErrAbsentTuple, t.schema.Name, tup, cur)
	}
	v := &t.version
	t.swapRemove(&t.rows, at, 0)
	var kb [64]byte
	for c, val := range cur {
		t.removeFromBucket(&t.index[c], val.AppendBinary(kb[:0]), int(t.locs.at(loc+1+c)), 1+c)
	}
	for i, cols := range t.schema.Indexes {
		which := 1 + len(cur) + i
		t.removeFromBucket(&t.comp[i], cur.AppendKey(kb[:0], cols), int(t.locs.at(loc+which)), which)
	}
	t.pos.del(v, h, k)
	t.locs.set(v, loc, t.freeRow)
	t.freeRow = rid
	t.epoch++
	if t.journal != nil {
		// A copy, so that k stays off the heap when nothing journals.
		t.note(strings.Clone(k))
	}
	return nil
}

// swapRemove deletes position at of vec (structure number which, see
// setLoc) by moving the last element into it.
func (t *table) swapRemove(vec *pvec[value.Tuple], at, which int) {
	if last := vec.n - 1; at != last {
		moved := vec.at(last)
		vec.set(&t.version, at, moved)
		t.setLoc(moved, which, at)
	}
	vec.pop(&t.version)
}

func (t *table) removeFromBucket(m *cowMap[*bucket], key []byte, at, which int) {
	b := t.openBucket(m, key)
	t.swapRemove(&b.tups, at, which)
	if b.tups.n == 0 {
		m.del(&t.version, hashBytes(key), string(key))
	}
}

func (t *table) len() int { return t.rows.n }

func (t *table) containsKey(key []byte) bool {
	_, ok := t.pos.get(key)
	return ok
}

func (t *table) contains(tup value.Tuple) bool {
	// Containment probes run once per fully-ground candidate atom in the
	// query evaluator; the stack buffer keeps them allocation-free.
	var kb [64]byte
	k := tup.AppendKey(kb[:0], t.schema.Key)
	rid, ok := t.pos.get(k)
	if !ok || t.schema.Key == nil {
		// A nil Key keys the whole tuple: equal keys are equal tuples.
		return ok
	}
	return t.rows.at(int(t.locs.at(int(rid) * t.stride))).Equal(tup)
}

func (t *table) scan(f func(value.Tuple) bool) { t.rows.each(f) }

func (t *table) indexScan(col int, v value.Value, f func(value.Tuple) bool) {
	var kb [64]byte
	if b, ok := t.index[col].get(v.AppendBinary(kb[:0])); ok {
		b.tups.each(f)
	}
}

// indexCount is the planner's cardinality probe — called once per bound
// column per remaining atom at every join level, so it must not allocate.
func (t *table) indexCount(col int, v value.Value) int {
	var kb [64]byte
	if b, ok := t.index[col].get(v.AppendBinary(kb[:0])); ok {
		return b.tups.n
	}
	return 0
}

func (t *table) compScan(ix int, key string, f func(value.Tuple) bool) {
	if b, ok := t.comp[ix].getString(key); ok {
		b.tups.each(f)
	}
}

func (t *table) compCount(ix int, key string) int {
	if b, ok := t.comp[ix].getString(key); ok {
		return b.tups.n
	}
	return 0
}

// clone returns a deep copy writing under v: every row re-inserted, no
// page shared with t.
func (t *table) clone(v version) *table {
	c := newTable(t.schema, v)
	t.scan(func(tup value.Tuple) bool {
		// insert cannot fail when copying a consistent table.
		if err := c.insert(tup); err != nil {
			panic("relstore: clone: " + err.Error())
		}
		return true
	})
	c.epoch = t.epoch
	return c
}
