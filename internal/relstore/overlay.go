package relstore

import (
	"bytes"
	"fmt"

	"repro/internal/hash"
	"repro/internal/value"
)

// Overlay is a delta view over a base Source: virtual inserts and deletes
// kept as an undo log. The quantum database grounds pending transactions
// sequentially by applying each transaction's update portion to an
// Overlay and evaluating the next body against it — the "consistent
// grounding" of Definition 3.1 made operational. The chain solver runs a
// whole solve on one Overlay: Mark before applying a candidate grounding,
// Undo after backtracking out of it, so a probe costs the same at every
// chain depth.
//
// Every Insert and Delete appends an op. A key's visible state is its
// latest op (an add shows that tuple, a delete hides the key), or the base
// row when the key has no op. An open-addressing index maps (relation,
// key) to the latest op, and the key bytes live in one arena. Undo pops
// ops newest first, pointing each key back at its previous op or emptying
// its index slot. Undo is LIFO, so no live key can have probed past a slot
// that is emptied again, and the index needs no tombstones.
//
// Reads answer exactly what a stack of nested overlays, one per Mark,
// would: scans emit the base rows whose key has no op, then the visible
// adds in op order; IndexCount and CompositeCount return the stack's
// upper-bound estimates (adds counted, deletes not subtracted, an add
// deleted again before the next Mark dropped), so the planner picks the
// same join order and the first solution found does not depend on how the
// delta is stored.
//
// The base may itself be an Overlay. An Overlay is not safe for
// concurrent use.
type Overlay struct {
	base Source
	ops  []overlayOp
	keys []byte // key arena, in op order
	// slots is the index: a power-of-two table of op index + 1 (0 is an
	// empty slot) for the latest op of every key with one; used counts the
	// occupied slots.
	slots []int32
	used  int
	// seg is where the innermost open Mark began: a delete of an add made
	// since then drops the add from the counts, as the nested stack's
	// topmost layer did.
	seg int
	// rels caches base schemas (fixed once a relation exists) and the live
	// op counts per relation; ops name relations by index into it.
	rels []relInfo

	// Scan plumbing: base-scan callbacks must skip rows whose key has an
	// op and remember whether the consumer stopped. A closure per scan
	// would allocate on every atom enumeration, so the filter is one bound
	// method (filterFn) reading scan, which is saved and restored around
	// nested scans of the same overlay.
	scan     scanState
	filterFn func(value.Tuple) bool
	kbuf     []byte // Insert's key buffer
}

// overlayOp is one logged insert (add) or delete.
type overlayOp struct {
	ri       int32  // relation, an index into Overlay.rels
	prev     int32  // the key's previous op, or -1
	h        uint64 // hash of (ri, key)
	off, end int    // key bytes in the arena
	tup      value.Tuple
	del      bool
	// shadowed: a later op on the same key exists, so this one is not the
	// key's visible state.
	shadowed bool
	// dropped (adds only): deleted again within the Mark that added it;
	// the nested stack removed such adds, so the counts skip them.
	dropped bool
}

type relInfo struct {
	name       string
	sch        Schema
	adds, dels int // live ops
}

type scanState struct {
	f       func(value.Tuple) bool
	ri      int32
	key     []int
	dead    bool // rel has delete ops, so base rows need the index probe
	stopped bool
}

// UndoMark is a position in an Overlay's log, returned by Mark.
type UndoMark struct{ n, seg int }

// NewOverlay returns an empty delta view over base.
func NewOverlay(base Source) *Overlay {
	return &Overlay{base: base}
}

// Reset rebinds the overlay to base and clears the delta, retaining the
// allocated log, arena and index. The chain solver pools its overlay and
// Resets it per solve instead of reallocating.
func (o *Overlay) Reset(base Source) {
	clear(o.ops)
	clear(o.slots)
	clear(o.rels)
	o.base = base
	o.ops, o.keys, o.rels = o.ops[:0], o.keys[:0], o.rels[:0]
	o.used, o.seg = 0, 0
	o.scan = scanState{}
}

// Mark returns the current position of the log; Undo(m) rolls back every
// Insert and Delete made since.
func (o *Overlay) Mark() UndoMark {
	m := UndoMark{n: len(o.ops), seg: o.seg}
	o.seg = len(o.ops)
	return m
}

// Undo rolls the overlay back to m, newest op first. Marks nest: undoing
// an outer mark also undoes every inner one.
func (o *Overlay) Undo(m UndoMark) {
	o.undoTo(m.n)
	o.seg = m.seg
}

// rel returns the index of rel's cache entry, looking the schema up in the
// base on first use.
func (o *Overlay) rel(rel string) (int32, bool) {
	for i := range o.rels {
		if o.rels[i].name == rel {
			return int32(i), true
		}
	}
	sch, ok := o.base.SchemaOf(rel)
	if !ok {
		return -1, false
	}
	o.rels = append(o.rels, relInfo{name: rel, sch: sch})
	return int32(len(o.rels) - 1), true
}

func keyHash(ri int32, key []byte) uint64 {
	h := hash.Mix(hash.Offset64, uint64(ri))
	for _, b := range key {
		h = hash.Byte(h, b)
	}
	return h
}

// find returns the index slot of (ri, key) and the key's latest op, or
// the empty slot where the key would go and -1.
func (o *Overlay) find(ri int32, h uint64, key []byte) (slot int, op int32) {
	if len(o.slots) == 0 {
		return -1, -1
	}
	mask := len(o.slots) - 1
	for s := int(h^h>>32) & mask; ; s = (s + 1) & mask {
		e := o.slots[s]
		if e == 0 {
			return s, -1
		}
		p := &o.ops[e-1]
		if p.h == h && p.ri == ri && bytes.Equal(o.keys[p.off:p.end], key) {
			return s, e - 1
		}
	}
}

// latest returns the index of the key's latest op, or -1 when the key has
// none.
func (o *Overlay) latest(ri int32, key []byte) int32 {
	if len(o.ops) == 0 {
		return -1
	}
	_, j := o.find(ri, keyHash(ri, key), key)
	return j
}

// push appends an op for (ri, key) and makes it the key's latest.
func (o *Overlay) push(ri int32, key []byte, tup value.Tuple, del bool) {
	if 2*(o.used+1) > len(o.slots) {
		o.grow()
	}
	h := keyHash(ri, key)
	s, prev := o.find(ri, h, key)
	off := len(o.keys)
	o.keys = append(o.keys, key...)
	o.ops = append(o.ops, overlayOp{ri: ri, prev: prev, h: h, off: off, end: len(o.keys), tup: tup, del: del})
	if prev >= 0 {
		o.ops[prev].shadowed = true
	} else {
		o.used++
	}
	o.slots[s] = int32(len(o.ops))
	if del {
		o.rels[ri].dels++
	} else {
		o.rels[ri].adds++
	}
}

// grow doubles the index and re-inserts the keys in the order their first
// op was logged, which keeps LIFO emptying safe.
func (o *Overlay) grow() {
	o.slots = make([]int32, max(16, 2*len(o.slots)))
	for j := range o.ops {
		p := &o.ops[j]
		s, _ := o.find(p.ri, p.h, o.keys[p.off:p.end])
		o.slots[s] = int32(j + 1)
	}
}

// undoTo pops ops until n remain.
func (o *Overlay) undoTo(n int) {
	if n >= len(o.ops) {
		return
	}
	mask := len(o.slots) - 1
	for j := len(o.ops) - 1; j >= n; j-- {
		p := &o.ops[j]
		s := int(p.h^p.h>>32) & mask
		for o.slots[s] != int32(j+1) {
			s = (s + 1) & mask
		}
		if p.prev >= 0 {
			o.slots[s] = p.prev + 1
			q := &o.ops[p.prev]
			q.shadowed = false
			if p.del {
				q.dropped = false
			}
		} else {
			o.slots[s] = 0
			o.used--
		}
		if p.del {
			o.rels[p.ri].dels--
		} else {
			o.rels[p.ri].adds--
		}
		p.tup = nil
	}
	o.keys = o.keys[:o.ops[n].off]
	o.ops = o.ops[:n]
}

// Insert records a virtual insert. It fails if the key is already present
// (set semantics across base plus delta). The overlay aliases tup —
// tuples are immutable by convention, and overlays are speculative, so
// no defensive clone is taken.
func (o *Overlay) Insert(rel string, tup value.Tuple) error {
	ri, ok := o.rel(rel)
	if !ok {
		return fmt.Errorf("relstore: overlay insert into unknown relation %s", rel)
	}
	sch := &o.rels[ri].sch
	if len(tup) != sch.Arity() {
		return fmt.Errorf("relstore: overlay %s: arity mismatch for %v", rel, tup)
	}
	// The key goes to the base's ContainsKey, an interface call it would
	// escape through from a stack buffer; kbuf keeps it off the heap.
	k := sch.appendKeyOf(o.kbuf[:0], tup)
	o.kbuf = k
	if j := o.latest(ri, k); j >= 0 {
		if !o.ops[j].del {
			return fmt.Errorf("relstore: overlay %s: duplicate key for %v", rel, tup)
		}
		// Reinsertion after delete: the delete stays in the log — it still
		// hides the base row, which may differ from tup in non-key columns.
	} else if o.base.ContainsKey(rel, k) {
		return fmt.Errorf("relstore: overlay %s: duplicate key for %v", rel, tup)
	}
	o.push(ri, k, tup, false)
	return nil
}

// Delete records the deletion of the exact tuple (which the overlay
// aliases; see Insert). Deleting an absent tuple is an error.
func (o *Overlay) Delete(rel string, tup value.Tuple) error {
	ri, ok := o.rel(rel)
	if !ok {
		return fmt.Errorf("relstore: overlay delete from unknown relation %s", rel)
	}
	var kb [64]byte
	k := o.rels[ri].sch.appendKeyOf(kb[:0], tup)
	if j := o.latest(ri, k); j >= 0 {
		p := &o.ops[j]
		if p.del {
			return fmt.Errorf("relstore: overlay %s: delete of absent tuple %v", rel, tup)
		}
		if !p.tup.Equal(tup) {
			return fmt.Errorf("relstore: overlay %s: delete %v does not match %v", rel, tup, p.tup)
		}
		if int(j) >= o.seg {
			p.dropped = true
		}
	} else if !o.base.Contains(rel, tup) {
		return fmt.Errorf("relstore: overlay %s: delete of absent tuple %v", rel, tup)
	}
	o.push(ri, k, tup, true)
	return nil
}

// ApplyFacts applies a batch of deletes then inserts, atomically: on the
// first error every op of the batch is undone.
func (o *Overlay) ApplyFacts(inserts, deletes []GroundFact) error {
	n := len(o.ops)
	for _, d := range deletes {
		if err := o.Delete(d.Rel, d.Tuple); err != nil {
			o.undoTo(n)
			return err
		}
	}
	for _, in := range inserts {
		if err := o.Insert(in.Rel, in.Tuple); err != nil {
			o.undoTo(n)
			return err
		}
	}
	return nil
}

// SchemaOf implements Source.
func (o *Overlay) SchemaOf(rel string) (Schema, bool) {
	ri, ok := o.rel(rel)
	if !ok {
		return Schema{}, false
	}
	return o.rels[ri].sch, true
}

// Len implements Source.
func (o *Overlay) Len(rel string) int {
	ri, ok := o.rel(rel)
	if !ok {
		return 0
	}
	r := &o.rels[ri]
	return o.base.Len(rel) + r.adds - r.dels
}

// ContainsKey implements Source.
func (o *Overlay) ContainsKey(rel string, key []byte) bool {
	ri, ok := o.rel(rel)
	if !ok {
		return false
	}
	if j := o.latest(ri, key); j >= 0 {
		return !o.ops[j].del
	}
	return o.base.ContainsKey(rel, key)
}

// Contains implements Source.
func (o *Overlay) Contains(rel string, tup value.Tuple) bool {
	ri, ok := o.rel(rel)
	if !ok {
		return false
	}
	var kb [64]byte
	if j := o.latest(ri, o.rels[ri].sch.appendKeyOf(kb[:0], tup)); j >= 0 {
		return !o.ops[j].del && o.ops[j].tup.Equal(tup)
	}
	return o.base.Contains(rel, tup)
}

// filterTuple is the shared base-scan callback; see the field comment. A
// base row whose key has any op is hidden: the key's first op on a base
// row is necessarily its delete.
func (o *Overlay) filterTuple(t value.Tuple) bool {
	if o.scan.dead {
		var kb [64]byte
		if o.latest(o.scan.ri, t.AppendKey(kb[:0], o.scan.key)) >= 0 {
			return true
		}
	}
	if !o.scan.f(t) {
		o.scan.stopped = true
		return false
	}
	return true
}

// beginScan installs f as the live consumer of a base scan of relation ri
// and returns the previous scan state for endScan (scans nest when a
// query enumerates one atom while scanning another against the same
// overlay).
func (o *Overlay) beginScan(ri int32, f func(value.Tuple) bool) scanState {
	if o.filterFn == nil {
		o.filterFn = o.filterTuple
	}
	prev := o.scan
	r := &o.rels[ri]
	o.scan = scanState{f: f, ri: ri, key: r.sch.Key, dead: r.dels > 0}
	return prev
}

// endScan restores prev and reports whether the consumer stopped.
func (o *Overlay) endScan(prev scanState) (stopped bool) {
	stopped = o.scan.stopped
	o.scan = prev
	return stopped
}

// addMatch selects the adds a scan or count covers: all of the relation's,
// those with column col equal to v (col >= 0), or those whose projection
// onto cols has the composite key (cols != nil).
type addMatch struct {
	col  int
	v    value.Value
	cols []int
	key  string
}

func (m *addMatch) holds(t value.Tuple) bool {
	if m.cols != nil {
		var kb [64]byte
		return string(t.AppendKey(kb[:0], m.cols)) == m.key
	}
	return m.col < 0 || t[m.col] == m.v
}

// emitAdds calls f with relation ri's visible adds matching m, in op
// order, until f returns false. Ops are read by index: f may log and undo
// ops (the chain solver recurses from inside scans), which can move the
// log but leaves its first n entries as they were by the time f returns.
func (o *Overlay) emitAdds(ri int32, m addMatch, f func(value.Tuple) bool) {
	if o.rels[ri].adds == 0 {
		return
	}
	for j, n := 0, len(o.ops); j < n; j++ {
		p := &o.ops[j]
		if p.ri != ri || p.del || p.shadowed || !m.holds(p.tup) {
			continue
		}
		if !f(p.tup) {
			return
		}
	}
}

// countAdds counts relation ri's adds matching m the way the nested stack
// did: every add still in the log except those dropped within their Mark.
func (o *Overlay) countAdds(ri int32, m addMatch) int {
	if o.rels[ri].adds == 0 {
		return 0
	}
	n := 0
	for j := range o.ops {
		p := &o.ops[j]
		if p.ri == ri && !p.del && !p.dropped && m.holds(p.tup) {
			n++
		}
	}
	return n
}

// Scan implements Source: base rows without an op, then the visible adds.
func (o *Overlay) Scan(rel string, f func(value.Tuple) bool) {
	ri, ok := o.rel(rel)
	if !ok {
		return
	}
	prev := o.beginScan(ri, f)
	o.base.Scan(rel, o.filterFn)
	if !o.endScan(prev) {
		o.emitAdds(ri, addMatch{col: -1}, f)
	}
}

// IndexScan implements Source.
func (o *Overlay) IndexScan(rel string, col int, v value.Value, f func(value.Tuple) bool) {
	ri, ok := o.rel(rel)
	if !ok {
		return
	}
	prev := o.beginScan(ri, f)
	o.base.IndexScan(rel, col, v, o.filterFn)
	if !o.endScan(prev) {
		o.emitAdds(ri, addMatch{col: col, v: v}, f)
	}
}

// IndexCount implements Source. The count is an upper-bound estimate used
// only for join planning: deletes are not subtracted.
func (o *Overlay) IndexCount(rel string, col int, v value.Value) int {
	n := o.base.IndexCount(rel, col, v)
	if ri, ok := o.rel(rel); ok {
		n += o.countAdds(ri, addMatch{col: col, v: v})
	}
	return n
}

// CompositeScan implements Source.
func (o *Overlay) CompositeScan(rel string, ix int, key string, f func(value.Tuple) bool) {
	ri, ok := o.rel(rel)
	if !ok || ix >= len(o.rels[ri].sch.Indexes) {
		return
	}
	cols := o.rels[ri].sch.Indexes[ix]
	prev := o.beginScan(ri, f)
	o.base.CompositeScan(rel, ix, key, o.filterFn)
	if !o.endScan(prev) {
		o.emitAdds(ri, addMatch{cols: cols, key: key}, f)
	}
}

// CompositeCount implements Source.
func (o *Overlay) CompositeCount(rel string, ix int, key string) int {
	n := o.base.CompositeCount(rel, ix, key)
	if ri, ok := o.rel(rel); ok && ix < len(o.rels[ri].sch.Indexes) {
		n += o.countAdds(ri, addMatch{cols: o.rels[ri].sch.Indexes[ix], key: key})
	}
	return n
}
