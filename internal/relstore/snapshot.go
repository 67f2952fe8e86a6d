package relstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/value"
)

// Snapshot format: a small self-describing binary encoding of schemas
// and rows, used by the quantum database's checkpointing (bounding WAL
// replay length). Layout:
//
//	magic "QDBSNAP1"
//	uvarint tableCount
//	per table: name, columns, key, composite indexes, rowCount, rows
//
// Strings are uvarint-length-prefixed; values use value.AppendBinary.

const snapMagic = "QDBSNAP1"

// encodeTables writes the table-catalog section of the snapshot format
// for Snapshot.Encode (lock-free over pinned versions).
//
// The encoding is CANONICAL: tables are emitted in name order and rows
// in primary-key order, regardless of the insertion/deletion history
// that produced the in-memory state (swap-remove deletes permute row
// storage). Equal content therefore always yields equal bytes, which is
// what the replication harness leans on — a leader whose rows were
// applied in admission order and a follower that replayed the WAL in
// sequence order must still byte-compare equal. Decoding re-inserts in
// key order, so a decoded store's scan order is canonical too (scan
// order only feeds grounding CHOICE among equally-valid worlds, not
// correctness).
//
// The row section of each table comes from its encCache, which keeps the
// newest one it produced and, when the table's journal covers the gap,
// re-sorts only the keys written since rather than the whole table.
func encodeTables(bw *bufio.Writer, tables catalog) error {
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	writeUvarint(bw, uint64(len(names)))
	for _, n := range names {
		t := tables[n]
		writeString(bw, t.schema.Name)
		writeUvarint(bw, uint64(len(t.schema.Columns)))
		for _, c := range t.schema.Columns {
			writeString(bw, c)
		}
		writeIntSlice(bw, t.schema.Key)
		writeUvarint(bw, uint64(len(t.schema.Indexes)))
		for _, ix := range t.schema.Indexes {
			writeIntSlice(bw, ix)
		}
		e, err := t.enc.get(t)
		if err != nil {
			return err
		}
		writeUvarint(bw, uint64(e.len()))
		if _, err := bw.Write(e.rows); err != nil {
			return err
		}
	}
	return nil
}

// encoding is one table version's canonical row section: the rows in
// primary-key order, each a uvarint length and its values'
// AppendBinary bytes — exactly what the snapshot format holds after the
// row count — with each row's key alongside for merging. Both arenas
// are pointer-free, so a cached encoding costs the GC nothing to scan.
// Immutable once built: concurrent encodes share it.
type encoding struct {
	epoch  uint64  // the table epoch it encodes
	rows   []byte  // row i is rows[rowOff[i]:rowOff[i+1]]
	rowOff []int32 // len() + 1 entries
	keys   []byte  // row i's primary key is keys[keyOff[i]:keyOff[i+1]]
	keyOff []int32
}

func (e *encoding) len() int { return len(e.rowOff) - 1 }

func (e *encoding) key(i int) []byte { return e.keys[e.keyOff[i]:e.keyOff[i+1]] }

// add appends a row with primary key k, using scratch for its value
// bytes, and returns scratch for reuse.
func (e *encoding) add(k []byte, tup value.Tuple, scratch []byte) []byte {
	e.keyOff = append(e.keyOff, int32(len(e.keys)))
	e.keys = append(e.keys, k...)
	e.rowOff = append(e.rowOff, int32(len(e.rows)))
	scratch = tup.AppendKey(scratch[:0], nil) // every value, in column order
	e.rows = binary.AppendUvarint(e.rows, uint64(len(scratch)))
	e.rows = append(e.rows, scratch...)
	return scratch
}

// copyRows appends rows [i, j) of c unchanged: two memmoves and a pass
// over their offsets.
func (e *encoding) copyRows(c *encoding, i, j int) {
	if i == j {
		return
	}
	rd := int32(len(e.rows)) - c.rowOff[i]
	for _, o := range c.rowOff[i:j] {
		e.rowOff = append(e.rowOff, o+rd)
	}
	e.rows = append(e.rows, c.rows[c.rowOff[i]:c.rowOff[j]]...)
	kd := int32(len(e.keys)) - c.keyOff[i]
	for _, o := range c.keyOff[i:j] {
		e.keyOff = append(e.keyOff, o+kd)
	}
	e.keys = append(e.keys, c.keys[c.keyOff[i]:c.keyOff[j]]...)
}

// seek returns the first row at or after i whose key is not below k. It
// gallops from i before it bisects: the changed keys are spread over the
// table, so the next one is usually a short hop away, and the probes
// stay within a few cache lines of the last.
func (c *encoding) seek(i int, k string) int {
	lo, hi, n := i, i, c.len()
	for step := 1; hi < n && string(c.key(hi)) < k; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, n)
	return lo + sort.Search(hi-lo, func(x int) bool { return string(c.key(lo+x)) >= k })
}

// seal closes the offset vectors. Offsets are int32 to keep the cache
// small; a table whose encoding outgrows them is refused rather than
// written wrong.
func (e *encoding) seal(name string) (*encoding, error) {
	if len(e.rows) > math.MaxInt32 || len(e.keys) > math.MaxInt32 {
		return nil, fmt.Errorf("relstore: %s: encoding exceeds %d bytes", name, math.MaxInt32)
	}
	e.rowOff = append(e.rowOff, int32(len(e.rows)))
	e.keyOff = append(e.keyOff, int32(len(e.keys)))
	return e, nil
}

// fullEncoding encodes every row of t, sorting them all by key.
func fullEncoding(t *table) (*encoding, error) {
	// Key every row into one arena and sort by key bytes (byte order is
	// string order): the version may be pinned by live snapshots and is
	// only read.
	type keyed struct {
		lo, hi int // the row's key is keys[lo:hi]
		tup    value.Tuple
	}
	rows := make([]keyed, 0, t.len())
	keys := make([]byte, 0, 16*t.len())
	t.scan(func(tup value.Tuple) bool {
		lo := len(keys)
		keys = t.schema.appendKeyOf(keys, tup)
		rows = append(rows, keyed{lo, len(keys), tup})
		return true
	})
	slices.SortFunc(rows, func(a, b keyed) int {
		return bytes.Compare(keys[a.lo:a.hi], keys[b.lo:b.hi])
	})
	e := &encoding{
		epoch:  t.epoch,
		rowOff: make([]int32, 0, len(rows)+1),
		keys:   make([]byte, 0, len(keys)),
		keyOff: make([]int32, 0, len(rows)+1),
	}
	var scratch []byte
	for _, r := range rows {
		scratch = e.add(keys[r.lo:r.hi], r.tup, scratch)
	}
	return e.seal(t.schema.Name)
}

// advance derives t's encoding from c, an encoding of an earlier
// version of the same table that t's journal covers: it sorts only the
// keys written since c.epoch, looks each up in t, and merges the
// results into c's rows in one pass that copies the unchanged runs
// between them whole.
func (c *encoding) advance(t *table) (*encoding, error) {
	changed := slices.Clone(t.journal[c.epoch-t.jbase:])
	slices.Sort(changed)
	changed = slices.Compact(changed)
	e := &encoding{
		epoch:  t.epoch,
		rows:   make([]byte, 0, len(c.rows)+len(c.rows)/8),
		rowOff: make([]int32, 0, t.len()+1),
		keys:   make([]byte, 0, len(c.keys)+len(c.keys)/8),
		keyOff: make([]int32, 0, t.len()+1),
	}
	var scratch []byte
	i, n := 0, c.len()
	for _, k := range changed {
		// Every cached row before the first at or past k is unchanged.
		j := c.seek(i, k)
		e.copyRows(c, i, j)
		i = j
		if i < n && string(c.key(i)) == k {
			i++ // rewritten or deleted since c
		}
		if rid, ok := t.pos.getString(k); ok {
			scratch = e.add([]byte(k), t.rows.at(int(t.locs.at(int(rid)*t.stride))), scratch)
		}
	}
	e.copyRows(c, i, n)
	return e.seal(t.schema.Name)
}

// encCache holds a relation's newest canonical row section, the base
// the next encode merges the relation's journal into. One is shared by
// every version of a relation (cowClone copies the pointer), so it
// outlives the versions it was built from.
type encCache struct {
	// cur is the newest encoding; writers read its epoch to cut their
	// journal down to what it does not cover.
	cur atomic.Pointer[encoding]
	// journaling is set once the relation is first encoded; from then
	// on its writable versions journal the keys they change.
	journaling atomic.Bool
}

// get returns the row section of t, a pinned version of the cache's
// relation. It reuses the cached encoding when that is of t's epoch,
// advances it when t's journal reaches back to it, and otherwise sorts t
// in full; the result replaces the cache only when it is newer, so
// encodes taken out of order never move it back.
func (ec *encCache) get(t *table) (*encoding, error) {
	c := ec.cur.Load()
	var e *encoding
	var err error
	switch {
	case c != nil && c.epoch == t.epoch:
		return c, nil
	case c != nil && c.epoch < t.epoch && t.journal != nil && t.jbase <= c.epoch &&
		uint64(len(t.journal)) == t.epoch-t.jbase:
		e, err = c.advance(t)
	default:
		e, err = fullEncoding(t)
	}
	if err != nil {
		return nil, err
	}
	for c := ec.cur.Load(); c == nil || c.epoch < e.epoch; c = ec.cur.Load() {
		if ec.cur.CompareAndSwap(c, e) {
			break
		}
	}
	return e, nil
}

// DecodeSnapshot reads a database written by Snapshot.Encode.
func DecodeSnapshot(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("relstore: snapshot header: %w", err)
	}
	if string(magic) != snapMagic {
		return nil, fmt.Errorf("relstore: bad snapshot magic %q", magic)
	}
	db := NewDB()
	nTables, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nTables; i++ {
		var s Schema
		if s.Name, err = readString(br); err != nil {
			return nil, err
		}
		nCols, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		for c := uint64(0); c < nCols; c++ {
			col, err := readString(br)
			if err != nil {
				return nil, err
			}
			s.Columns = append(s.Columns, col)
		}
		if s.Key, err = readIntSlice(br); err != nil {
			return nil, err
		}
		nIdx, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		for x := uint64(0); x < nIdx; x++ {
			ix, err := readIntSlice(br)
			if err != nil {
				return nil, err
			}
			s.Indexes = append(s.Indexes, ix)
		}
		if err := db.CreateTable(s); err != nil {
			return nil, err
		}
		nRows, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		for rIdx := uint64(0); rIdx < nRows; rIdx++ {
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			buf := make([]byte, n)
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, err
			}
			var tup value.Tuple
			for len(buf) > 0 {
				v, w, err := value.DecodeBinary(buf)
				if err != nil {
					return nil, err
				}
				tup = append(tup, v)
				buf = buf[w:]
			}
			if len(tup) != len(s.Columns) {
				return nil, fmt.Errorf("relstore: snapshot row arity %d for %s", len(tup), s.Name)
			}
			if err := db.Insert(s.Name, tup); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	// Encoding into the writer's own spare buffer keeps the scratch bytes
	// off the heap (a local array would escape through Write).
	w.Write(binary.AppendUvarint(w.AvailableBuffer(), v))
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("relstore: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// writeIntSlice encodes a possibly-nil int slice, distinguishing nil
// (encoded as 0) from empty (unused by schemas).
func writeIntSlice(w *bufio.Writer, s []int) {
	writeUvarint(w, uint64(len(s)))
	for _, v := range s {
		writeUvarint(w, uint64(v))
	}
}

func readIntSlice(r *bufio.Reader) ([]int, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("relstore: implausible slice length %d", n)
	}
	out := make([]int, n)
	for i := range out {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}
