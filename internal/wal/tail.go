package wal

import "sort"

// The in-memory tail: every segment keeps copies of the frame bodies it
// most recently buffered, so a log-shipping read whose resume point is
// recent is answered from memory instead of by reopening and decoding
// every segment file. The copy is made under the segment lock, in the
// same critical section that assigns the sequence number and buffers the
// frame, so a reader holding that lock sees exactly what a flush-then-
// scan of the file would show it.

// tailBytes and tailEntries bound one segment's tail: the arena of body
// copies and the index over it. Whichever fills first evicts the oldest
// entries. Both are allocated once, when the segment opens, so an append
// costs one copy and no allocation. With the engine's two default
// segments a log holds about 2.2 MiB of tail.
const (
	tailBytes   = 1 << 20
	tailEntries = 4096
)

// tailEntry locates one body in the arena. start is a logical offset
// that only grows; the bytes sit at start % tailBytes.
type tailEntry struct {
	seq   uint64
	start uint64
	n     int
}

// tailRing is one segment's tail: an index ring of entries over a byte
// arena, both in append order, so sequence numbers ascend from head.
// Guarded by the segment's mutex.
type tailRing struct {
	buf   []byte
	ents  []tailEntry
	head  int    // index of the oldest entry
	count int    // live entries
	end   uint64 // logical offset one past the newest body
}

func newTailRing() tailRing {
	return tailRing{buf: make([]byte, tailBytes), ents: make([]tailEntry, tailEntries)}
}

// at returns the i-th oldest live entry.
func (t *tailRing) at(i int) tailEntry { return t.ents[(t.head+i)%len(t.ents)] }

// reset drops every entry.
func (t *tailRing) reset() { t.head, t.count = 0, 0 }

// add copies body, the frame body of batch seq, into the arena and
// returns the highest sequence number it evicted to make room (0 when
// none). A body is never split across the arena's end: one that does not
// fit before it starts the next lap. A body larger than the arena is not
// kept; the ring empties and reports seq itself as evicted.
func (t *tailRing) add(seq uint64, body []byte) (evicted uint64) {
	size := uint64(len(t.buf))
	n := uint64(len(body))
	if n > size {
		t.reset()
		return seq
	}
	start := t.end
	if off := start % size; off+n > size {
		start += size - off
	}
	end := start + n
	// An entry survives while it lies within the last size logical bytes;
	// entries are in start order, so only the oldest need be checked.
	for t.count > 0 && (t.count == len(t.ents) || t.ents[t.head].start+size < end) {
		evicted = t.ents[t.head].seq
		t.head = (t.head + 1) % len(t.ents)
		t.count--
	}
	copy(t.buf[start%size:], body)
	t.ents[(t.head+t.count)%len(t.ents)] = tailEntry{seq: seq, start: start, n: int(n)}
	t.count++
	t.end = end
	return evicted
}

// appendRange copies the bodies of the entries with after < seq <= high,
// at most max of them (max <= 0: all), onto dst and returns it with the
// end offset of each copied body appended to ends.
func (t *tailRing) appendRange(dst []byte, ends []int, after, high uint64, max int) ([]byte, []int) {
	size := uint64(len(t.buf))
	i := sort.Search(t.count, func(i int) bool { return t.at(i).seq > after })
	for taken := 0; i < t.count && (max <= 0 || taken < max); i, taken = i+1, taken+1 {
		e := t.at(i)
		if e.seq > high {
			break
		}
		off := e.start % size
		dst = append(dst, t.buf[off:off+uint64(e.n)]...)
		ends = append(ends, len(dst))
	}
	return dst, ends
}
