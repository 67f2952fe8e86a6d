package core

import (
	"slices"

	"repro/internal/logic"
	"repro/internal/txn"
	"repro/internal/value"
)

// partIndex accelerates the partition-independence test of §4. Scanning
// every partition per admission makes the whole run quadratic in the
// number of flights; this index keeps it linear (the property Figure 7
// demonstrates): candidates for an atom costs O(c·n + m log m) — c the
// atom's constant positions, n the partitions filed under its narrowest
// one, m the IDs returned — and allocates nothing once its buffer is
// warm, whatever the number of pending partitions.
//
// For every atom of every pending transaction it records, per argument
// position, whether the position holds a variable or which constant it
// holds. Two atoms can only unify if at every position where both hold
// constants the constants agree — so the candidate partitions for a new
// atom are, intersected over its constant positions: partitions with a
// same-relation atom holding a variable there, or the same constant.
// This is a sound over-approximation; the exact MGU check runs only on
// the candidates.
type partIndex struct {
	// rel maps a relation name to partition-id refcounts (atoms of that
	// relation).
	rel map[string]map[int64]int
	// slot maps (relation, position, constant-or-var) to partition-id
	// refcounts.
	slot map[slotKey]map[int64]int
	// buf backs the slice candidates returns, reused from call to call.
	buf []int64
}

type slotKey struct {
	rel   string
	pos   int
	isVar bool        // a variable at this position
	val   value.Value // the constant, when !isVar
}

func newPartIndex() *partIndex {
	return &partIndex{
		rel:  make(map[string]map[int64]int),
		slot: make(map[slotKey]map[int64]int),
	}
}

func slotOf(a logic.Atom, pos int) slotKey {
	t := a.Args[pos]
	if t.IsVar() {
		return slotKey{rel: a.Rel, pos: pos, isVar: true}
	}
	return slotKey{rel: a.Rel, pos: pos, val: t.Value()}
}

func bump(m map[int64]int, pid int64, delta int) bool {
	m[pid] += delta
	if m[pid] <= 0 {
		delete(m, pid)
		return len(m) == 0
	}
	return false
}

// add registers every atom of t under partition pid.
func (ix *partIndex) add(t *txn.T, pid int64) { ix.update(t, pid, 1) }

// remove deregisters t from pid.
func (ix *partIndex) remove(t *txn.T, pid int64) { ix.update(t, pid, -1) }

func (ix *partIndex) update(t *txn.T, pid int64, delta int) {
	for _, b := range t.Body {
		ix.updateAtom(b.Atom, pid, delta)
	}
	for _, u := range t.Update {
		ix.updateAtom(u.Atom, pid, delta)
	}
}

func (ix *partIndex) updateAtom(a logic.Atom, pid int64, delta int) {
	rm := ix.rel[a.Rel]
	if rm == nil {
		rm = make(map[int64]int)
		ix.rel[a.Rel] = rm
	}
	if bump(rm, pid, delta) {
		delete(ix.rel, a.Rel)
	}
	for pos := range a.Args {
		k := slotOf(a, pos)
		sm := ix.slot[k]
		if sm == nil {
			sm = make(map[int64]int)
			ix.slot[k] = sm
		}
		if bump(sm, pid, delta) {
			delete(ix.slot, k)
		}
	}
}

// move re-homes t from one partition to another (merge bookkeeping).
func (ix *partIndex) move(t *txn.T, from, to int64) {
	ix.remove(t, from)
	ix.add(t, to)
}

// candidates returns, ascending and without duplicates, the IDs of the
// partitions holding an atom that agrees with one of atoms wherever both
// hold constants — a superset of the partitions with an atom unifiable
// with one of them. The slice belongs to the index and is valid until the
// next call; the caller holds the registry lock across both.
func (ix *partIndex) candidates(atoms []logic.Atom) []int64 {
	out := ix.buf[:0]
	for _, a := range atoms {
		out = ix.appendCandidates(out, a)
	}
	slices.Sort(out)
	out = slices.Compact(out)
	ix.buf = out
	return out
}

// posSets is one constant position's two partition sets: atoms with a
// variable there, and atoms with the same constant there.
type posSets struct {
	vars, constants map[int64]int
}

func (s posSets) size() int { return len(s.vars) + len(s.constants) }

// accepts reports whether partition pid agrees at this position.
func (s posSets) accepts(pid int64) bool {
	if _, ok := s.vars[pid]; ok {
		return true
	}
	_, ok := s.constants[pid]
	return ok
}

// appendCandidates appends a's candidates to out, possibly more than once.
// It walks only the partitions filed under a's narrowest constant
// position — the one with the fewest partitions holding a variable or
// the same constant there — and keeps one only if every other constant
// position also accepts it. That is exactly the intersection over all
// constant positions: a partition outside the narrowest position's sets
// fails that position's test anyway. Only an atom without constants walks
// the whole relation.
func (ix *partIndex) appendCandidates(out []int64, a logic.Atom) []int64 {
	var stack [8]posSets
	sets := stack[:0]
	narrow := -1
	for pos, t := range a.Args {
		if t.IsVar() {
			continue
		}
		s := posSets{
			vars:      ix.slot[slotKey{rel: a.Rel, pos: pos, isVar: true}],
			constants: ix.slot[slotKey{rel: a.Rel, pos: pos, val: t.Value()}],
		}
		if s.size() == 0 {
			return out // no partition can agree at pos
		}
		if narrow < 0 || s.size() < sets[narrow].size() {
			narrow = len(sets)
		}
		sets = append(sets, s)
	}
	if narrow < 0 {
		for pid := range ix.rel[a.Rel] {
			out = append(out, pid)
		}
		return out
	}
	n := sets[narrow]
	for _, m := range [2]map[int64]int{n.vars, n.constants} {
	next:
		for pid := range m {
			for i, s := range sets {
				if i != narrow && !s.accepts(pid) {
					continue next
				}
			}
			out = append(out, pid)
		}
	}
	return out
}
