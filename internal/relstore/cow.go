package relstore

import (
	"hash/maphash"
	"sync/atomic"
	"unsafe"
)

// Page-granular copy-on-write containers. A table version is a handful
// of roots into trees of small pages; versions share pages by pointer.
// Every page records the stamp of the version that allocated it, and the
// one rule is the owner-stamp rule: a mutator writing under stamp S may
// change a page in place only when the page's stamp is S; otherwise it
// copies the page, stamps the copy S, and re-points the (owned) parent.
// Stamps are never reused, and a version pinned by a snapshot is never
// written under its own stamp again (DB.mutable installs a successor
// with a fresh one first), so whatever a pinned version can reach is
// frozen without any reader-side synchronization.
//
// Cost model: making a successor version copies roots only; a write then
// pays for the pages on the paths it touches — a few hundred bytes to a
// few kilobytes each, independent of the table's size.

const (
	pageBits = 6
	// pageSize is the number of entries in a vector leaf and the fan-out
	// of a vector's interior pages.
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
	// A map shard's table starts at shardMin slots and doubles up to
	// shardCap; kept at most 3/4 full, a shard splits beyond 48 keys.
	// shardCap slots are the unit a write to a shared shard copies.
	shardMin = 8
	shardCap = 64
	// maxShardDepth stops splitting once a shard is addressed by this
	// many hash bits; keys that still collide share an oversized shard.
	maxShardDepth = 30
)

// cowStats counts page, shard and bucket copies made because the page
// belonged to another version: the write amplification live (or recently
// live) snapshots cause.
type cowStats struct {
	copies atomic.Int64
	bytes  atomic.Int64
}

// version is the identity a table version's mutators write under.
type version struct {
	stamp uint64
	stats *cowStats
}

func (v *version) copied(bytes int) {
	v.stats.copies.Add(1)
	v.stats.bytes.Add(int64(bytes))
}

// pvec is a persistent vector: a radix tree of pages supporting indexed
// access, append, and removal of the last element. The zero pvec is
// empty.
type pvec[T any] struct {
	root *page[T]
	n    int
	// shift is the number of index bits consumed above the leaf level;
	// 0 while the root is itself a leaf.
	shift uint8
}

// page is one tree node; its level (known from the descent) says whether
// kids or vals is in use.
type page[T any] struct {
	stamp uint64
	kids  []*page[T]
	vals  []T
}

// ownPage returns a copy of p stamped v, which v may write in place.
func ownPage[T any](v *version, p *page[T]) *page[T] {
	c := &page[T]{stamp: v.stamp}
	var zero T
	if p.kids != nil {
		c.kids = append(make([]*page[T], 0, pageSize), p.kids...)
	}
	if p.vals != nil {
		// Leave room to grow: most copies are made for an append.
		c.vals = append(make([]T, 0, min(pageSize, 2*len(p.vals))), p.vals...)
	}
	v.copied(len(p.kids)*int(unsafe.Sizeof(p)) + len(p.vals)*int(unsafe.Sizeof(zero)))
	return c
}

func (pv *pvec[T]) at(i int) T {
	p := pv.root
	for s := pv.shift; s > 0; s -= pageBits {
		p = p.kids[(i>>s)&pageMask]
	}
	return p.vals[i&pageMask]
}

// ownRoot and ownKid make the root, or child k of the owned page p,
// writable under v and return it. They store a pointer only when they
// copied: the common all-owned descent writes nothing.
func (pv *pvec[T]) ownRoot(v *version) *page[T] {
	if pv.root.stamp != v.stamp {
		pv.root = ownPage(v, pv.root)
	}
	return pv.root
}

func ownKid[T any](v *version, p *page[T], k int) *page[T] {
	c := p.kids[k]
	if c.stamp != v.stamp {
		c = ownPage(v, c)
		p.kids[k] = c
	}
	return c
}

// leaf returns the owned leaf holding index i, owning the path to it.
func (pv *pvec[T]) leaf(v *version, i int) *page[T] {
	p := pv.ownRoot(v)
	for s := pv.shift; s > 0; s -= pageBits {
		p = ownKid(v, p, (i>>s)&pageMask)
	}
	return p
}

func (pv *pvec[T]) set(v *version, i int, x T) {
	pv.leaf(v, i).vals[i&pageMask] = x
}

func (pv *pvec[T]) push(v *version, x T) {
	switch {
	case pv.root == nil:
		pv.root = &page[T]{stamp: v.stamp}
	case pv.n == pageSize<<pv.shift:
		// Full at this height: the old root becomes the first child.
		pv.root = &page[T]{stamp: v.stamp, kids: append(make([]*page[T], 0, pageSize), pv.root)}
		pv.shift += pageBits
	default:
		pv.ownRoot(v)
	}
	p := pv.root
	for s := pv.shift; s > 0; s -= pageBits {
		k := (pv.n >> s) & pageMask
		if k < len(p.kids) {
			p = ownKid(v, p, k)
			continue
		}
		np := &page[T]{stamp: v.stamp}
		if s == pageBits {
			// A leaf opened after a full one will fill up too; only a
			// vector's first leaf grows by doubling.
			np.vals = make([]T, 0, pageSize)
		}
		p.kids = append(p.kids, np)
		p = np
	}
	p.vals = append(p.vals, x)
	pv.n++
}

// pop removes the last element.
func (pv *pvec[T]) pop(v *version) {
	pv.n--
	if pv.n == 0 {
		*pv = pvec[T]{}
		return
	}
	// 64 index bits over pageBits per level bounds the height.
	var path [64/pageBits + 1]*page[T]
	p, d := pv.ownRoot(v), 0
	path[0] = p
	for s := pv.shift; s > 0; s -= pageBits {
		p = ownKid(v, p, (pv.n>>s)&pageMask)
		d++
		path[d] = p
	}
	var zero T
	last := len(p.vals) - 1
	p.vals[last] = zero
	p.vals = p.vals[:last]
	// Unlink pages the removal emptied, bottom-up, then drop root levels
	// that no longer fan out.
	for ; d > 0 && len(path[d].vals) == 0 && len(path[d].kids) == 0; d-- {
		up := path[d-1]
		up.kids[len(up.kids)-1] = nil
		up.kids = up.kids[:len(up.kids)-1]
	}
	for pv.shift > 0 && len(pv.root.kids) == 1 {
		pv.root = pv.root.kids[0]
		pv.shift -= pageBits
	}
}

// each calls f for every element in index order until f returns false.
func (pv *pvec[T]) each(f func(T) bool) {
	if pv.root != nil {
		pv.root.each(pv.shift, f)
	}
}

func (p *page[T]) each(shift uint8, f func(T) bool) bool {
	if shift == 0 {
		for _, x := range p.vals {
			if !f(x) {
				return false
			}
		}
		return true
	}
	for _, k := range p.kids {
		if !k.each(shift-pageBits, f) {
			return false
		}
	}
	return true
}

// hashSeed keys the map hash. Shard and slot placement are invisible to
// callers (nothing iterates a cowMap), so a per-process seed costs no
// determinism.
var hashSeed = maphash.MakeSeed()

// A key is hashed once: the low bits pick the directory slot (and decide
// splits), the high bits the probe position inside the shard. The top
// bit is forced on so that a stored hash of zero can mean "empty slot".
func hashBytes(b []byte) uint64  { return maphash.Bytes(hashSeed, b) | 1<<63 }
func hashString(s string) uint64 { return maphash.String(hashSeed, s) | 1<<63 }

// cowMap is a persistent string-keyed hash map: an extendible-hashing
// directory (a pvec, so re-pointing a slot copies one small page) over
// small shards. The low depth bits of a key's hash
// select its directory slot; a shard addressed by fewer bits than the
// directory is aliased by every slot that agrees on them.
type cowMap[V any] struct {
	dir   pvec[*shard[V]]
	depth uint8
}

// shard is one small open-addressing table (linear probing, deletion by
// backward shift, so no tombstones): a flat slice a writer copies with
// one memmove when the shard belongs to another version.
type shard[V any] struct {
	stamp uint64
	// depth is how many hash bits address this shard (<= cowMap.depth).
	depth uint8
	n     int
	slots []slot[V] // power-of-two length, at most 3/4 full; nil while empty
}

type slot[V any] struct {
	hash uint64 // 0 marks an empty slot
	key  string
	val  V
}

func newCowMap[V any](v *version) cowMap[V] {
	var m cowMap[V]
	m.dir.push(v, &shard[V]{stamp: v.stamp})
	return m
}

func (m *cowMap[V]) slot(h uint64) int { return int(h & (1<<m.depth - 1)) }

// find returns the index of the slot holding key (whose hash is h), or -1.
func find[V any, K string | []byte](s *shard[V], h uint64, key K) int {
	if len(s.slots) == 0 {
		return -1
	}
	mask := len(s.slots) - 1
	for i := int(h>>32) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.hash == 0 {
			return -1
		}
		if sl.hash == h && sl.key == string(key) {
			return i
		}
	}
}

// get looks key up by its bytes without materializing a string.
func (m *cowMap[V]) get(key []byte) (x V, ok bool) {
	h := hashBytes(key)
	s := m.dir.at(m.slot(h))
	if i := find(s, h, key); i >= 0 {
		return s.slots[i].val, true
	}
	return x, false
}

func (m *cowMap[V]) getString(key string) (V, bool) {
	return m.getHashed(hashString(key), key)
}

// getHashed is getString for a caller that already has hashString(key).
func (m *cowMap[V]) getHashed(h uint64, key string) (x V, ok bool) {
	s := m.dir.at(m.slot(h))
	if i := find(s, h, key); i >= 0 {
		return s.slots[i].val, true
	}
	return x, false
}

// own returns the shard for hash h, writable under v.
func (m *cowMap[V]) own(v *version, h uint64) *shard[V] {
	s := m.dir.at(m.slot(h))
	if s.stamp == v.stamp {
		return s
	}
	c := &shard[V]{stamp: v.stamp, depth: s.depth, n: s.n, slots: append([]slot[V](nil), s.slots...)}
	v.copied(len(s.slots) * int(unsafe.Sizeof(slot[V]{})))
	m.repoint(v, h, s.depth, c, c)
	return c
}

// repoint stores lo/hi into every directory slot that agrees with h on
// its low depth bits, choosing by the next bit.
func (m *cowMap[V]) repoint(v *version, h uint64, depth uint8, lo, hi *shard[V]) {
	step := 1 << depth
	for j := int(h) & (step - 1); j < 1<<m.depth; j += step {
		if j&step == 0 {
			m.dir.set(v, j, lo)
		} else {
			m.dir.set(v, j, hi)
		}
	}
}

// put stores key → x; h must be hashString(key). A full shard first
// grows its table, up to shardCap slots, and then splits.
func (m *cowMap[V]) put(v *version, h uint64, key string, x V) {
	s := m.own(v, h)
	if i := find(s, h, key); i >= 0 {
		s.slots[i].val = x
		return
	}
	for (s.n+1)*4 > len(s.slots)*3 {
		if len(s.slots) < shardCap || s.depth >= maxShardDepth {
			s.grow()
		} else {
			m.split(v, s, h)
			s = m.dir.at(m.slot(h))
		}
	}
	s.add(h, key, x)
}

// add places a key known to be absent; the table has room.
func (s *shard[V]) add(h uint64, key string, x V) {
	mask := len(s.slots) - 1
	i := int(h>>32) & mask
	for s.slots[i].hash != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = slot[V]{hash: h, key: key, val: x}
	s.n++
}

// grow doubles the table (or gives an empty shard its first one).
func (s *shard[V]) grow() {
	old := s.slots
	s.slots, s.n = make([]slot[V], max(shardMin, 2*len(old))), 0
	for _, sl := range old {
		if sl.hash != 0 {
			s.add(sl.hash, sl.key, sl.val)
		}
	}
}

// split replaces s (the owned shard for hash h) by two shards addressed
// by one more hash bit, doubling the directory if s already used all of
// its bits.
func (m *cowMap[V]) split(v *version, s *shard[V], h uint64) {
	if s.depth == m.depth {
		for i, n := 0, 1<<m.depth; i < n; i++ {
			m.dir.push(v, m.dir.at(i))
		}
		m.depth++
	}
	lo := &shard[V]{stamp: v.stamp, depth: s.depth + 1, slots: make([]slot[V], len(s.slots))}
	hi := &shard[V]{stamp: v.stamp, depth: s.depth + 1, slots: make([]slot[V], len(s.slots))}
	bit := uint64(1) << s.depth
	for _, sl := range s.slots {
		switch {
		case sl.hash == 0:
		case sl.hash&bit == 0:
			lo.add(sl.hash, sl.key, sl.val)
		default:
			hi.add(sl.hash, sl.key, sl.val)
		}
	}
	m.repoint(v, h, s.depth, lo, hi)
}

// del removes key, if present; h must be hashString(key).
func (m *cowMap[V]) del(v *version, h uint64, key string) {
	s := m.own(v, h)
	i := find(s, h, key)
	if i < 0 {
		return
	}
	// Backward-shift deletion: close the gap by moving up each later
	// entry of the probe run whose home position allows it.
	mask := len(s.slots) - 1
	for j := i; ; {
		j = (j + 1) & mask
		if s.slots[j].hash == 0 {
			break
		}
		// The entry at j may move to the gap at i unless its home lies
		// cyclically in (i, j].
		if home := int(s.slots[j].hash>>32) & mask; (j-home)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = slot[V]{}
	s.n--
}
