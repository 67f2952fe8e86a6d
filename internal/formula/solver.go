package formula

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/value"
)

// Grounding is the concrete value assignment chosen for one transaction in
// a chain solution, together with the ground update facts it induces.
type Grounding struct {
	Txn     *txn.T
	Inserts []relstore.GroundFact
	Deletes []relstore.GroundFact
	// OptionalSatisfied counts how many optional atoms of the transaction
	// this grounding satisfies (only computed when the solver is asked to
	// maximize optionals).
	OptionalSatisfied int
}

// ChainSolution is a consistent grounding (Definition 3.1) for an ordered
// sequence of transactions: per-transaction assignments such that each
// body grounds on the store as modified by all earlier update portions.
type ChainSolution struct {
	Groundings []Grounding
}

// Facts flattens the solution into the insert and delete fact lists. Note
// that cross-transaction ordering is lost: when a later transaction
// consumes a tuple an earlier one inserted, apply the Groundings one by
// one in chain order instead.
func (cs *ChainSolution) Facts() (inserts, deletes []relstore.GroundFact) {
	for _, g := range cs.Groundings {
		inserts = append(inserts, g.Inserts...)
		deletes = append(deletes, g.Deletes...)
	}
	return inserts, deletes
}

// ChainOptions tunes SolveChain.
type ChainOptions struct {
	// Planner is forwarded to the conjunctive-query evaluator.
	Planner relstore.PlannerMode
	// MaximizeOptionals makes the solver prefer, per transaction in chain
	// order, groundings satisfying as many optional atoms as possible
	// (§2: "if there is an assignment that satisfies the optional clauses
	// it must be chosen in preference to one that does not"). When false,
	// optional atoms are ignored entirely.
	MaximizeOptionals bool
	// MaxSteps bounds the number of grounding attempts before giving up;
	// 0 means no bound. A safety valve against pathological backtracking.
	MaxSteps int
	// StepCounter, when non-nil, is incremented by the number of
	// grounding attempts the solve performed (satisfiability-effort
	// accounting for the §6 phase-transition experiment). The add is
	// atomic: independent partitions solve concurrently and may share a
	// counter.
	StepCounter *int64
	// Prep, when non-nil, is a cross-solve cache of compiled bodies keyed
	// by transaction shape: the solver claims a body from it instead of
	// compiling one, and returns its bodies when the solve ends. See
	// PrepCache for the sharing and synchronization contract.
	Prep *PrepCache
	// skipFirst, when set, rejects candidate groundings of the first
	// transaction (used by SolveChainVaryingFirst to enumerate distinct
	// collapses of the grounding target).
	skipFirst func(Grounding) bool
}

// ErrBudget is returned when MaxSteps is exhausted before a decision.
var ErrBudget = fmt.Errorf("formula: solver step budget exhausted")

// SolveChain searches for a consistent grounding of ts, in order, over
// base. It returns ok=false if none exists. The base store is not
// modified.
func SolveChain(base relstore.Source, ts []*txn.T, opt ChainOptions) (*ChainSolution, bool, error) {
	sols, err := SolveChainN(base, ts, opt, 1)
	if err != nil {
		return nil, false, err
	}
	if len(sols) == 0 {
		return nil, false, nil
	}
	return sols[0], true, nil
}

// SolveChainN returns up to n distinct consistent groundings (n <= 0 means
// one). Additional solutions feed grounding-choice heuristics: the chooser
// picks the collapse that preserves the most future flexibility (§3.2.2).
func SolveChainN(base relstore.Source, ts []*txn.T, opt ChainOptions, n int) ([]*ChainSolution, error) {
	if n <= 0 {
		n = 1
	}
	c := solverPool.Get().(*chainSolver)
	c.base, c.ts, c.opt, c.want = base, ts, opt, n
	sols, err := c.run()
	c.release()
	return sols, err
}

// SolveChainVaryingFirst returns up to n consistent groundings that
// differ in the FIRST transaction's grounding. Plain SolveChainN
// backtracks deepest-first, so its solutions share the head assignment;
// collapse-choice heuristics need alternatives for the transaction being
// grounded, which this provides.
func SolveChainVaryingFirst(base relstore.Source, ts []*txn.T, opt ChainOptions, n int) ([]*ChainSolution, error) {
	if n <= 0 {
		n = 1
	}
	var sols []*ChainSolution
	var fk factsKeyer
	seen := make(map[string]bool)
	for len(sols) < n {
		o := opt
		o.skipFirst = func(g Grounding) bool { return seen[fk.key(g)] }
		got, err := SolveChainN(base, ts, o, 1)
		if err != nil {
			return nil, err
		}
		if len(got) == 0 {
			break
		}
		sols = append(sols, got[0])
		seen[fk.key(got[0].Groundings[0])] = true
	}
	return sols, nil
}

// factsKeyer canonicalizes a grounding's update facts for dedup. The
// skipFirst filter runs it against every candidate grounding of the
// chain head, so the fact encodings are built in one reused byte buffer
// (binary value encoding, no per-fact string rendering) and only the
// final map key is allocated.
type factsKeyer struct {
	buf   []byte
	spans [][2]int // per-fact [start, end) into buf
	out   []byte
}

func (fk *factsKeyer) add(sign byte, f relstore.GroundFact) {
	start := len(fk.buf)
	fk.buf = append(fk.buf, sign)
	fk.buf = append(fk.buf, f.Rel...)
	for _, v := range f.Tuple {
		fk.buf = v.AppendBinary(fk.buf)
	}
	fk.spans = append(fk.spans, [2]int{start, len(fk.buf)})
}

func (fk *factsKeyer) key(g Grounding) string {
	fk.buf, fk.spans = fk.buf[:0], fk.spans[:0]
	for _, f := range g.Inserts {
		fk.add('+', f)
	}
	for _, f := range g.Deletes {
		fk.add('-', f)
	}
	sort.Slice(fk.spans, func(i, j int) bool {
		a, b := fk.spans[i], fk.spans[j]
		return bytes.Compare(fk.buf[a[0]:a[1]], fk.buf[b[0]:b[1]]) < 0
	})
	fk.out = fk.out[:0]
	for i, sp := range fk.spans {
		if i > 0 {
			fk.out = append(fk.out, '|')
		}
		fk.out = append(fk.out, fk.buf[sp[0]:sp[1]]...)
	}
	return string(fk.out)
}

// chainSolver is one solve's state. Its scratch — the overlay, the level
// buffers, the L1 compile map — is pooled across solves (solverPool), so a
// warm solve allocates only the solutions it returns.
type chainSolver struct {
	base  relstore.Source
	ts    []*txn.T
	opt   ChainOptions
	steps int
	want  int
	sols  []*ChainSolution
	// ov is the solve's one delta: level i marks it, applies a candidate
	// grounding, recurses, and undoes back to the mark.
	ov     *relstore.Overlay
	levels []*level
	// prep caches the compiled body per (transaction index,
	// optional-subset mask). solveFrom(i) runs once per candidate
	// grounding of the earlier transactions, so without the cache the
	// same body would be recompiled for every candidate.
	prep map[uint64]*body
	// claimed are the cross-solve cache bodies this solve holds
	// exclusively; released when the solve finishes.
	claimed []claim
	// atoms is scratch for the body atoms a cached body is rebound to.
	atoms []logic.Atom
}

var solverPool = sync.Pool{New: func() any {
	return &chainSolver{ov: relstore.NewOverlay(nil), prep: make(map[uint64]*body)}
}}

// body is a transaction body compiled for the chain solver: the query over
// its hard atoms (plus the optional atoms its mask selects), and its
// update atoms as plans over that query's slots.
type body struct {
	q     *relstore.Prepared
	upd   []updatePlan
	nvals int // values across all update tuples
}

// updatePlan grounds one update atom from a body solution.
type updatePlan struct {
	atom   logic.Atom
	insert bool
	// slots holds, per argument, the body slot its variable is bound in,
	// -1 for a constant (in consts), or -2 for a variable the body never
	// binds (grounding it is an error).
	slots  []int
	consts []value.Value
}

// appendBodyAtoms appends the atoms of t's body query under the
// optional-subset mask: the hard atoms, then the optional atoms the mask
// selects, each in body order.
func appendBodyAtoms(dst []logic.Atom, t *txn.T, mask uint64) []logic.Atom {
	for _, b := range t.Body {
		if !b.Optional {
			dst = append(dst, b.Atom)
		}
	}
	if mask == 0 {
		return dst
	}
	opt := 0
	for _, b := range t.Body {
		if b.Optional {
			if mask&(1<<uint(opt)) != 0 {
				dst = append(dst, b.Atom)
			}
			opt++
		}
	}
	return dst
}

// compileBody compiles t's body under the optional-subset mask.
func compileBody(t *txn.T, mask uint64, planner relstore.PlannerMode) *body {
	atoms := appendBodyAtoms(nil, t, mask)
	b := &body{q: relstore.Query{Atoms: atoms, Planner: planner}.Compile(), upd: make([]updatePlan, len(t.Update))}
	for _, op := range t.Update {
		b.nvals += len(op.Atom.Args)
	}
	slots := make([]int, b.nvals)
	consts := make([]value.Value, b.nvals)
	off := 0
	for k, op := range t.Update {
		n := len(op.Atom.Args)
		u := &b.upd[k]
		u.atom, u.insert = op.Atom, op.Insert
		u.slots, u.consts = slots[off:off+n:off+n], consts[off:off+n:off+n]
		off += n
		for a, term := range op.Atom.Args {
			if !term.IsVar() {
				u.slots[a], u.consts[a] = -1, term.Value()
			} else if s, ok := b.q.SlotOf(term.Name()); ok {
				u.slots[a] = s
			} else {
				u.slots[a] = -2
			}
		}
	}
	return b
}

// rebind overwrites b's constants with those of t, which has the shape b
// was compiled from; atoms is scratch for the body atoms. The update
// atoms are rebound too, so error text names t.
func (b *body) rebind(t *txn.T, mask uint64, atoms []logic.Atom) []logic.Atom {
	atoms = appendBodyAtoms(atoms[:0], t, mask)
	b.q.Rebind(atoms)
	for k, op := range t.Update {
		u := &b.upd[k]
		u.atom = op.Atom
		for a, s := range u.slots {
			if s == -1 {
				u.consts[a] = op.Atom.Args[a].Value()
			}
		}
	}
	return atoms
}

// level is chain position i's scratch, reused across its candidates and
// across pooled solves: the body being evaluated, the current candidate's
// grounding (facts backed by vals), and the emit callback, bound once.
type level struct {
	c        *chainSolver
	i        int
	b        *body
	optCount int
	g        Grounding
	vals     []value.Value
	stop     bool
	err      error
	emitFn   func() bool
}

// preparedFor returns the compiled body for transaction i under the given
// optional-subset mask, compiling on first use. Reuse is safe because the
// chain recursion only ever nests evaluations of strictly later
// transactions inside an evaluation of transaction i. The per-solve map is
// an L1 over the optional cross-solve cache (opt.Prep): the shared cache
// is claimed from, and a cached body rebound to transaction i, once per
// (level, mask) per solve; the L1 absorbs the per-candidate traffic.
func (c *chainSolver) preparedFor(i int, mask uint64) *body {
	key := uint64(i)<<32 | mask
	if b, ok := c.prep[key]; ok {
		return b
	}
	t := c.ts[i]
	var cl claim
	if c.opt.Prep != nil {
		cl = c.opt.Prep.claim(prepKey{shape: t.Shape(), mask: mask, planner: c.opt.Planner})
	}
	if cl.b != nil {
		c.atoms = cl.b.rebind(t, mask, c.atoms)
	} else {
		cl.b = compileBody(t, mask, c.opt.Planner)
	}
	if cl.fl != nil {
		c.claimed = append(c.claimed, cl)
	}
	c.prep[key] = cl.b
	return cl.b
}

func (c *chainSolver) run() ([]*ChainSolution, error) {
	c.ov.Reset(c.base)
	for len(c.levels) < len(c.ts) {
		l := &level{c: c, i: len(c.levels)}
		l.emitFn = l.emit
		c.levels = append(c.levels, l)
	}
	_, err := c.solveFrom(0)
	if c.opt.StepCounter != nil {
		atomic.AddInt64(c.opt.StepCounter, int64(c.steps))
	}
	if err != nil {
		return nil, err
	}
	return c.sols, nil
}

// release returns every claimed cross-solve cache body, drops the
// solve's references and puts the solver back in the pool.
func (c *chainSolver) release() {
	if len(c.claimed) > 0 {
		c.opt.Prep.release(c.claimed)
	}
	clear(c.claimed)
	clear(c.atoms[:cap(c.atoms)])
	c.claimed = c.claimed[:0]
	clear(c.prep)
	for _, l := range c.levels[:len(c.ts)] {
		l.b, l.g.Txn, l.err = nil, nil, nil
	}
	c.ov.Reset(nil)
	c.base, c.ts, c.opt, c.sols, c.steps, c.want = nil, nil, ChainOptions{}, nil, 0, 0
	solverPool.Put(c)
}

// solveFrom grounds transactions c.ts[i:] over the overlay. The returned
// bool means "enough solutions collected, stop searching".
func (c *chainSolver) solveFrom(i int) (bool, error) {
	if i == len(c.ts) {
		c.sols = append(c.sols, c.copySolution())
		return len(c.sols) >= c.want, nil
	}
	if c.opt.MaximizeOptionals {
		return c.solveMaximizing(i)
	}
	return c.solveWith(i, 0, 0)
}

// solveMaximizing tries optional-atom subsets of decreasing size, so the
// chosen grounding satisfies the maximum number of optional atoms that
// still admits a full-chain solution. Once any subset size yields a
// solution, smaller sizes are not explored: all collected candidates for
// this transaction carry the maximal optional count.
func (c *chainSolver) solveMaximizing(i int) (bool, error) {
	opts := c.ts[i].OptionalAtoms()
	if len(opts) == 0 {
		return c.solveWith(i, 0, 0)
	}
	if len(opts) > 16 {
		return false, fmt.Errorf("formula: %d optional atoms exceeds subset-search limit", len(opts))
	}
	n := uint(len(opts))
	for size := len(opts); size >= 0; size-- {
		before := len(c.sols)
		for mask := uint64(0); mask < 1<<n; mask++ {
			if bits.OnesCount64(mask) != size {
				continue
			}
			stop, err := c.solveWith(i, mask, size)
			if err != nil || stop {
				return stop, err
			}
		}
		if len(c.sols) > before {
			return false, nil // solutions exist at this optional count
		}
	}
	return false, nil
}

// solveWith grounds transaction i using the body atoms selected by mask,
// then recurses on the remaining transactions; it backtracks through all
// groundings of i until enough full-chain solutions are collected.
func (c *chainSolver) solveWith(i int, mask uint64, optCount int) (bool, error) {
	l := c.levels[i]
	l.b = c.preparedFor(i, mask)
	l.optCount, l.stop, l.err = optCount, false, nil
	l.g.Txn = c.ts[i]
	if cap(l.vals) < l.b.nvals {
		// Sized up front: the candidate's tuples are sub-slices of vals.
		l.vals = make([]value.Value, 0, l.b.nvals)
	}
	if err := l.b.q.Each(c.ov, nil, l.emitFn); err != nil {
		return false, err
	}
	return l.stop, l.err
}

// emit handles one body solution of level l: ground the updates, apply
// them to the overlay under a mark, recurse, undo.
func (l *level) emit() bool {
	c := l.c
	c.steps++
	if c.opt.MaxSteps > 0 && c.steps > c.opt.MaxSteps {
		l.err = ErrBudget
		return false
	}
	if err := l.ground(); err != nil {
		l.err = err
		return false
	}
	if l.i == 0 && c.opt.skipFirst != nil && c.opt.skipFirst(l.g) {
		return true
	}
	m := c.ov.Mark()
	if c.ov.ApplyFacts(l.g.Inserts, l.g.Deletes) != nil {
		// This grounding collides with the store state (e.g. duplicate
		// key): not a valid world, try the next grounding.
		c.ov.Undo(m)
		return true
	}
	stop, err := c.solveFrom(l.i + 1)
	c.ov.Undo(m)
	if err != nil {
		l.err = err
		return false
	}
	if stop {
		l.stop = true
		return false
	}
	return true
}

// ground instantiates the update portion under the body solution being
// emitted, into the level's scratch. Every update variable must be bound
// (guaranteed by range restriction).
func (l *level) ground() error {
	vals := l.vals[:0]
	ins, dels := l.g.Inserts[:0], l.g.Deletes[:0]
	for k := range l.b.upd {
		u := &l.b.upd[k]
		start := len(vals)
		for a, s := range u.slots {
			if s == -1 {
				vals = append(vals, u.consts[a])
				continue
			}
			v, ok := value.Value{}, false
			if s >= 0 {
				v, ok = l.b.q.Value(s)
			}
			if !ok {
				return fmt.Errorf("formula: update atom %v not ground by its body", u.atom)
			}
			vals = append(vals, v)
		}
		f := relstore.GroundFact{Rel: u.atom.Rel, Tuple: vals[start:len(vals):len(vals)]}
		if u.insert {
			ins = append(ins, f)
		} else {
			dels = append(dels, f)
		}
	}
	l.g.Inserts, l.g.Deletes = ins, dels
	return nil
}

// copySolution copies the levels' current groundings out of the scratch:
// one Groundings slice, one fact arena, one value arena.
func (c *chainSolver) copySolution() *ChainSolution {
	ls := c.levels[:len(c.ts)]
	nf, nv := 0, 0
	for _, l := range ls {
		nf += len(l.g.Inserts) + len(l.g.Deletes)
		for _, f := range l.g.Inserts {
			nv += len(f.Tuple)
		}
		for _, f := range l.g.Deletes {
			nv += len(f.Tuple)
		}
	}
	facts := make([]relstore.GroundFact, 0, nf)
	vals := make([]value.Value, 0, nv)
	sol := &ChainSolution{Groundings: make([]Grounding, len(ls))}
	for i, l := range ls {
		g := &sol.Groundings[i]
		g.Txn, g.OptionalSatisfied = l.g.Txn, l.optCount
		g.Inserts, facts, vals = copyFacts(l.g.Inserts, facts, vals)
		g.Deletes, facts, vals = copyFacts(l.g.Deletes, facts, vals)
	}
	return sol
}

// copyFacts appends copies of src to the arenas and returns them as their
// own capped slice (nil when src is empty).
func copyFacts(src, facts []relstore.GroundFact, vals []value.Value) ([]relstore.GroundFact, []relstore.GroundFact, []value.Value) {
	if len(src) == 0 {
		return nil, facts, vals
	}
	start := len(facts)
	for _, f := range src {
		at := len(vals)
		vals = append(vals, f.Tuple...)
		facts = append(facts, relstore.GroundFact{Rel: f.Rel, Tuple: vals[at:len(vals):len(vals)]})
	}
	return facts[start:len(facts):len(facts)], facts, vals
}

// CountOptionalsSatisfied reports how many of t's optional atoms hold on
// src under s (binding additional variables as needed for each atom
// independently).
func CountOptionalsSatisfied(src relstore.Source, t *txn.T, s logic.Subst) int {
	n := 0
	for _, a := range t.OptionalAtoms() {
		q := relstore.Query{Atoms: []logic.Atom{a}}
		if _, ok, err := q.FindOne(src, s); err == nil && ok {
			n++
		}
	}
	return n
}
