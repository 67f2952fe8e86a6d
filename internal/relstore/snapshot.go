package relstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"

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

// EncodeSnapshot writes the full database state to w. It holds the
// database's read lock for the duration; to serialize without blocking
// writers, take a Snapshot and use its Encode (same format).
func (db *DB) EncodeSnapshot(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	if err := encodeTables(bw, db.tables); err != nil {
		return err
	}
	return bw.Flush()
}

// encodeTables writes the table-catalog section of the snapshot format;
// shared by DB.EncodeSnapshot (under lock) and Snapshot.Encode
// (lock-free over pinned versions).
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
func encodeTables(bw *bufio.Writer, tables map[string]*table) error {
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
		// Key every row into one arena and sort by key bytes (byte order
		// is string order): the version may be pinned by live snapshots
		// and is only read.
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
		writeUvarint(bw, uint64(len(rows)))
		var buf []byte
		for _, r := range rows {
			buf = buf[:0]
			for _, v := range r.tup {
				buf = v.AppendBinary(buf)
			}
			writeUvarint(bw, uint64(len(buf)))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeSnapshot reads a database written by EncodeSnapshot.
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
