package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/txn"
	"repro/internal/value"
)

// naiveCandidates is the relation-wide candidate walk, the reference the
// narrowest-slot walk must agree with: start from every partition
// touching the atom's relation and narrow by each constant position in
// turn. It costs O(partitions of the relation) per atom.
func naiveCandidates(ix *partIndex, atoms []logic.Atom) map[int64]bool {
	out := make(map[int64]bool)
	for _, a := range atoms {
		base := ix.rel[a.Rel]
		if len(base) == 0 {
			continue
		}
		cur := make(map[int64]bool, len(base))
		for pid := range base {
			cur[pid] = true
		}
		for pos := range a.Args {
			if a.Args[pos].IsVar() {
				continue
			}
			varSet := ix.slot[slotKey{rel: a.Rel, pos: pos, isVar: true}]
			constSet := ix.slot[slotOf(a, pos)]
			for pid := range cur {
				if _, ok := varSet[pid]; ok {
					continue
				}
				if _, ok := constSet[pid]; ok {
					continue
				}
				delete(cur, pid)
			}
		}
		for pid := range cur {
			out[pid] = true
		}
	}
	return out
}

// indexRels are the relations the index tests draw atoms from: three
// arities, so positions past an atom's arity are exercised too.
var indexRels = []struct {
	name  string
	arity int
}{{"R", 1}, {"S", 2}, {"T", 3}}

// indexConsts share a few constants across partitions, including the
// int/string pair whose zero values must not collide.
var indexConsts = []value.Value{value.NewInt(0), value.NewString(""), value.NewInt(1), value.NewString("a"), value.NewInt(2)}

// indexSim runs random add/remove/move steps against a partIndex and a
// plain model of which transaction sits in which partition, checking after
// every step that candidates returns exactly naiveCandidates' set, and
// that both agree with the model.
type indexSim struct {
	t    testing.TB
	next func(n int) int // a choice in [0, n)
	ix   *partIndex
	home map[*txn.T]int64 // registered transaction -> partition
	all  []*txn.T         // registered transactions, in registration order
	vars int
}

func newIndexSim(t testing.TB, next func(n int) int) *indexSim {
	return &indexSim{t: t, next: next, ix: newPartIndex(), home: map[*txn.T]int64{}}
}

func (d *indexSim) atom() logic.Atom {
	r := indexRels[d.next(len(indexRels))]
	args := make([]logic.Term, r.arity)
	for i := range args {
		if d.next(3) == 0 {
			d.vars++
			args[i] = logic.Var(fmt.Sprintf("v%d", d.vars%4))
		} else {
			args[i] = logic.Const(indexConsts[d.next(len(indexConsts))])
		}
	}
	return logic.NewAtom(r.name, args...)
}

func (d *indexSim) txn() *txn.T {
	t := &txn.T{}
	for n := 1 + d.next(2); n > 0; n-- {
		t.Body = append(t.Body, txn.BodyAtom{Atom: d.atom(), Optional: d.next(4) == 0})
	}
	for n := d.next(2); n >= 0; n-- {
		t.Update = append(t.Update, txn.Op{Insert: d.next(2) == 0, Atom: d.atom()})
	}
	return t
}

func (d *indexSim) step() {
	const parts = 6
	switch op := d.next(4); {
	case op <= 1 || len(d.all) == 0: // add
		t, pid := d.txn(), int64(d.next(parts))
		d.ix.add(t, pid)
		d.home[t] = pid
		d.all = append(d.all, t)
	case op == 2: // remove
		i := d.next(len(d.all))
		t := d.all[i]
		d.ix.remove(t, d.home[t])
		delete(d.home, t)
		d.all = slices.Delete(d.all, i, i+1)
	default: // move
		t := d.all[d.next(len(d.all))]
		to := int64(d.next(parts))
		d.ix.move(t, d.home[t], to)
		d.home[t] = to
	}
	for q := 0; q < 3; q++ {
		query := []logic.Atom{d.atom()}
		if d.next(2) == 0 {
			query = append(query, d.atom())
		}
		d.check(query)
	}
}

// modelCandidates derives the reference set from the registered
// transactions themselves, so index bookkeeping bugs (a refcount left
// behind by remove or move) show up too: a partition qualifies for an
// atom when it holds an atom of the relation, and at every constant
// position some atom of the relation holds a variable or that constant.
func (d *indexSim) modelCandidates(query []logic.Atom) map[int64]bool {
	out := map[int64]bool{}
	for _, a := range query {
		for _, pid := range d.home {
			if out[pid] || !d.qualifies(pid, a) {
				continue
			}
			out[pid] = true
		}
	}
	return out
}

func (d *indexSim) qualifies(pid int64, a logic.Atom) bool {
	var same []logic.Atom
	for t, p := range d.home {
		if p != pid {
			continue
		}
		for _, x := range atomsOf(t) {
			if x.Rel == a.Rel {
				same = append(same, x)
			}
		}
	}
	if len(same) == 0 {
		return false
	}
	for pos, arg := range a.Args {
		if arg.IsVar() {
			continue
		}
		agrees := false
		for _, x := range same {
			if pos < len(x.Args) && (x.Args[pos].IsVar() || x.Args[pos].Value() == arg.Value()) {
				agrees = true
				break
			}
		}
		if !agrees {
			return false
		}
	}
	return true
}

func (d *indexSim) check(query []logic.Atom) {
	got := d.ix.candidates(query)
	if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
		d.t.Fatalf("candidates(%s) = %v: not ascending and unique", logic.FormatAtoms(query), got)
	}
	want := naiveCandidates(d.ix, query)
	model := d.modelCandidates(query)
	if !sameSet(got, want) || !sameSet(got, model) {
		d.t.Fatalf("candidates(%s) = %v, naive %v, model %v", logic.FormatAtoms(query), got, sortedKeys(want), sortedKeys(model))
	}
}

func sameSet(ids []int64, set map[int64]bool) bool {
	if len(ids) != len(set) {
		return false
	}
	for _, id := range ids {
		if !set[id] {
			return false
		}
	}
	return true
}

func sortedKeys(set map[int64]bool) []int64 {
	out := make([]int64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// TestPartIndexMatchesNaive: the narrowest-slot candidate walk returns
// exactly the set the relation-wide walk does — not merely a superset —
// after every add, remove and move.
func TestPartIndexMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newIndexSim(t, rng.Intn)
		for i := 0; i < 300; i++ {
			d.step()
		}
	}
}

func FuzzPartIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 1, 0, 0, 0, 2, 2, 2, 3, 3, 3, 1, 2, 0, 1})
	f.Add([]byte("narrowest slot, exact set"))
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[i%len(data)] ^ byte(i/len(data))
			i++
			return int(b) % n
		}
		d := newIndexSim(t, next)
		for steps := 0; steps < len(data); steps++ {
			d.step()
		}
	})
}

// TestPartIndexCandidatesAllocFree: once its buffer is warm, candidates
// allocates nothing — not per call, and not per partition walked.
func TestPartIndexCandidatesAllocFree(t *testing.T) {
	ix := newPartIndex()
	for pid := int64(0); pid < 200; pid++ {
		ix.add(book(fmt.Sprintf("u%d", pid), int(pid%50)), pid)
	}
	queries := [][]logic.Atom{
		atomsOf(book("new", 7)),
		{logic.NewAtom("Available", logic.Var("f"), logic.Var("s"))},
		{logic.NewAtom("Bookings", logic.Str("u3"), logic.Int(3), logic.Var("s"))},
	}
	for _, q := range queries {
		ix.candidates(q)
	}
	for _, q := range queries {
		if n := testing.AllocsPerRun(100, func() { ix.candidates(q) }); n != 0 {
			t.Errorf("candidates(%s) allocates %.1f per call, want 0", logic.FormatAtoms(q), n)
		}
	}
}
