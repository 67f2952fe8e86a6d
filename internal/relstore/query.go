package relstore

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/value"
)

// PlannerMode selects the join-order strategy of the conjunctive-query
// evaluator. The paper's prototype leans on MySQL's optimizer (with
// optimizer_search_depth tuned down); our engine offers a dynamic
// greedy planner and a naive static one, so the "bad query plan" anomalies
// the paper reports (Fig 7/8) can be reproduced as an ablation.
type PlannerMode int

const (
	// PlanDynamic re-picks the cheapest unresolved atom after every
	// binding step, using index-based cardinality estimates. Default.
	PlanDynamic PlannerMode = iota
	// PlanStatic evaluates atoms in the textual order they were given,
	// emulating a fixed (and often bad) join order.
	PlanStatic
)

// Query is a conjunctive query: positive relational atoms over shared
// variables, plus residual constraints checked once their variables are
// bound. It is the evaluation unit behind the LIMIT-1 satisfiability
// oracle.
type Query struct {
	Atoms []logic.Atom
	// Checks are residual predicates. Each check is invoked as soon as
	// every variable in Vars is bound; a false result prunes the branch.
	Checks []Check
	// Planner selects the join-order strategy; zero value is PlanDynamic.
	Planner PlannerMode
}

// Check is a residual predicate over bound variables.
type Check struct {
	Vars []string
	// Pred receives a binding lookup and reports whether the constraint
	// holds.
	Pred func(bind func(string) (value.Value, bool)) bool
	// Label is used in debug output only.
	Label string
}

// Eval enumerates satisfying substitutions of q over src, starting from
// the (possibly nil) initial substitution, calling emit for each complete
// solution. emit returns false to stop enumeration. The Subst handed to
// emit is a fresh snapshot per solution; callers may retain it. Eval
// returns an error only for structural problems (unknown relation, arity
// mismatch).
func (q Query) Eval(src Source, init logic.Subst, emit func(logic.Subst) bool) error {
	return q.Compile().Eval(src, init, emit)
}

// FindOne returns the first satisfying substitution, or ok=false if the
// query is unsatisfiable over src. This is the LIMIT 1 oracle.
func (q Query) FindOne(src Source, init logic.Subst) (logic.Subst, bool, error) {
	return q.Compile().FindOne(src, init)
}

// FindAll returns up to limit satisfying substitutions (limit <= 0 means
// no limit).
func (q Query) FindAll(src Source, init logic.Subst, limit int) ([]logic.Subst, error) {
	return q.Compile().FindAll(src, init, limit)
}

// Count returns the number of satisfying substitutions.
func (q Query) Count(src Source) (int, error) {
	return q.Compile().Count(src)
}

// Rows returns every satisfying substitution as a columnar row set; see
// Prepared.Rows.
func (q Query) Rows(src Source) (*RowSet, error) {
	return q.Compile().Rows(src)
}

// RowSet is a columnar query result: the column (variable) names once,
// then the rows' values flat in row-major order. It is what a read hands
// up from the evaluator to the wire without a per-row map in between.
type RowSet struct {
	// Cols names the columns; every row has len(Cols) cells.
	Cols []string
	// N is the number of rows (a query without variables has zero
	// columns and, when it holds, one row).
	N int
	// Vals holds the N*len(Cols) cells.
	Vals []value.Value
	// Unbound, when non-nil, parallels Vals and marks cells whose
	// variable the solution left unbound. No parsed query produces one
	// (every variable occurs in an atom); it stays nil then.
	Unbound []bool
}

// Cell returns the value of column c in row i; ok is false for an
// unbound cell.
func (rs *RowSet) Cell(i, c int) (v value.Value, ok bool) {
	at := i*len(rs.Cols) + c
	return rs.Vals[at], rs.Unbound == nil || !rs.Unbound[at]
}

// Col returns the position of the named column, or -1.
func (rs *RowSet) Col(name string) int {
	for c, n := range rs.Cols {
		if n == name {
			return c
		}
	}
	return -1
}

// appendSolution appends env's current bindings of the column slots
// [0, len(Cols)) as one row.
func (rs *RowSet) appendSolution(env *logic.Env) {
	for slot := range rs.Cols {
		v, ok := env.Value(slot)
		if !ok && rs.Unbound == nil {
			rs.Unbound = make([]bool, len(rs.Vals), cap(rs.Vals))
		}
		rs.Vals = append(rs.Vals, v)
		if rs.Unbound != nil {
			rs.Unbound = append(rs.Unbound, !ok)
		}
	}
	rs.N++
}

// Prepared is a compiled conjunctive query: every variable is resolved to
// a slot of a logic.Env once, each atom's arguments are pre-split into
// slots and constants, and all evaluation scratch (remaining-atom lists,
// per-atom walk buffers, composite-key buffer) is hoisted into reusable
// storage. Evaluation then backtracks by binding slots and undoing a
// trail instead of cloning a map per candidate tuple, so a Prepared
// performs no per-tuple allocations.
//
// Solutions leave through one path, Each: the callback reads the bound
// slots (SlotOf, Value) while the solution is live. Eval snapshots them
// into a Subst, Rows appends them to one flat row set, and the chain
// solver grounds update atoms straight from them, so only Eval pays a map
// per solution.
//
// A Prepared may be evaluated repeatedly but is not safe for concurrent
// use; compile one per goroutine.
type Prepared struct {
	planner PlannerMode
	env     *logic.Env
	atoms   []compiledAtom
	checks  []compiledCheck
	// nvars is the number of distinct variables in the atoms: they hold
	// slots [0, nvars) in order of first occurrence (check-only variables
	// follow), which is the column order of Rows.
	nvars int

	// Per-evaluation state.
	src     Source
	emit    func() bool
	stopped bool
	// rem[d] holds the indexes of atoms not yet grounded at depth d; each
	// depth owns one reusable buffer since recursion visits it once per
	// evaluation path.
	rem    [][]int
	keyBuf []byte
	bindFn func(string) (value.Value, bool)
}

// compiledAtom is one atom with its arguments resolved to slots, plus the
// scratch the evaluator needs while estimating or scanning it. Sharing
// the scratch across an evaluation is safe because an atom is active at
// most once per evaluation path (it leaves the remaining set when
// picked).
type compiledAtom struct {
	p      *Prepared
	rel    string
	args   []logic.Term
	slots  []int         // per argument: variable slot, or -1 for a constant
	consts []value.Value // per argument: the constant when slots[i] < 0

	ground []bool        // walked argument resolved to a constant
	vals   []value.Value // that constant, when ground
	tup    value.Tuple   // probe buffer for fully ground atoms

	nextDepth int // depth the continuation resumes at while scanning
	match     func(value.Tuple) bool
}

// compiledCheck pairs a residual check with the slots of its variables.
type compiledCheck struct {
	c     Check
	slots []int
}

// Compile resolves q's variables to Env slots and allocates all
// evaluation scratch up front — from a handful of shared backing arrays,
// since the chain solver compiles one query per transaction shape.
// Query.Eval compiles transparently; callers evaluating the same query
// many times can compile once and reuse the Prepared.
func (q Query) Compile() *Prepared {
	nargs := 0
	for _, a := range q.Atoms {
		nargs += len(a.Args)
	}
	nchk := 0
	for _, c := range q.Checks {
		nchk += len(c.Vars)
	}
	na := len(q.Atoms)
	p := &Prepared{planner: q.Planner, env: logic.NewEnvCap(nargs + nchk)}
	ints := make([]int, nargs+nchk+(na+1)*na)
	bools := make([]bool, nargs)
	vals := make([]value.Value, 2*nargs)
	tups := make(value.Tuple, nargs)
	p.atoms = make([]compiledAtom, na)
	off := 0
	for ai := range q.Atoms {
		a := &q.Atoms[ai]
		n := len(a.Args)
		ca := &p.atoms[ai]
		ca.p = p
		ca.rel = a.Rel
		ca.args = a.Args
		ca.slots = ints[off : off+n : off+n]
		ca.ground = bools[off : off+n : off+n]
		ca.consts = vals[2*off : 2*off+n : 2*off+n]
		ca.vals = vals[2*off+n : 2*off+2*n : 2*off+2*n]
		ca.tup = tups[off : off+n : off+n]
		off += n
		for i, t := range a.Args {
			if t.IsVar() {
				ca.slots[i] = p.env.Slot(t.Name())
			} else {
				ca.slots[i] = -1
				ca.consts[i] = t.Value()
			}
		}
		ca.match = ca.matchTuple // bound once; scans reuse it
	}
	p.nvars = p.env.Len()
	coff := nargs
	if len(q.Checks) > 0 {
		p.checks = make([]compiledCheck, len(q.Checks))
		for ci, c := range q.Checks {
			cc := &p.checks[ci]
			cc.c = c
			cc.slots = ints[coff : coff+len(c.Vars) : coff+len(c.Vars)]
			for i, v := range c.Vars {
				cc.slots[i] = p.env.Slot(v)
			}
			coff += len(c.Vars)
		}
	}
	p.rem = make([][]int, na+1)
	for d := range p.rem {
		p.rem[d] = ints[coff : coff : coff+na]
		coff += na
	}
	p.bindFn = p.lookupVar
	return p
}

// Rebind overwrites the query's constants with those of atoms, which
// must have the shape the query was compiled from: the same relations,
// arities, constant positions and repeated-variable pattern, in the same
// order (txn.T.Shape). Slots and scratch are kept, so a compiled query
// serves every transaction of its shape. The variable names stay those
// the query was compiled with: callers that rebind read solutions by
// slot, not by name.
func (p *Prepared) Rebind(atoms []logic.Atom) {
	for i := range p.atoms {
		ca := &p.atoms[i]
		ca.args = atoms[i].Args
		for j, s := range ca.slots {
			if s < 0 {
				ca.consts[j] = ca.args[j].Value()
			}
		}
	}
}

// Each evaluates the compiled query over src, extending the (possibly
// nil) initial substitution, and calls emit once per solution until emit
// returns false. While emit runs, Value reads the solution's bindings; the
// solution costs nothing unless emit copies it out. Each returns an error
// only for structural problems (unknown relation, arity mismatch).
func (p *Prepared) Each(src Source, init logic.Subst, emit func() bool) error {
	return p.eval(src, init, emit, nil)
}

// SlotOf returns the slot of a variable of the query.
func (p *Prepared) SlotOf(name string) (int, bool) { return p.env.SlotOf(name) }

// Value returns slot's binding in the solution being emitted; ok is false
// while it is unbound.
func (p *Prepared) Value(slot int) (value.Value, bool) { return p.env.Value(slot) }

// Eval evaluates the compiled query over src; see Query.Eval for the
// contract.
func (p *Prepared) Eval(src Source, init logic.Subst, emit func(logic.Subst) bool) error {
	return p.eval(src, init, func() bool { return emit(p.env.Snapshot()) }, nil)
}

// Rows evaluates the compiled query over src and returns every solution
// as one row of a columnar row set: one column per variable of the
// query's atoms, in order of first occurrence. No Subst is built; a
// solution costs the values it appends.
func (p *Prepared) Rows(src Source) (*RowSet, error) {
	rs := &RowSet{Cols: make([]string, p.nvars)}
	for i := range rs.Cols {
		rs.Cols[i] = p.env.Name(i)
	}
	err := p.eval(src, nil, func() bool { rs.appendSolution(p.env); return true }, rs)
	return rs, err
}

// rowsHint caps the rows a row set is pre-sized for from the planner's
// estimate, which for a join is only a guess.
const rowsHint = 1024

// eval runs one evaluation, handing solutions to emit; when sized is
// non-nil it is pre-sized for the planner's first estimate.
func (p *Prepared) eval(src Source, init logic.Subst, emit func() bool, sized *RowSet) error {
	for i := range p.atoms {
		ca := &p.atoms[i]
		sch, ok := src.SchemaOf(ca.rel)
		if !ok {
			return fmt.Errorf("relstore: query over unknown relation %s", ca.rel)
		}
		if len(ca.args) != sch.Arity() {
			return fmt.Errorf("relstore: query atom %v has arity %d, relation has %d",
				logic.Atom{Rel: ca.rel, Args: ca.args}, len(ca.args), sch.Arity())
		}
	}
	p.env.Reset()
	if init != nil {
		p.env.Load(init)
	}
	p.src, p.stopped = src, false
	rem := p.rem[0][:0]
	for i := range p.atoms {
		rem = append(rem, i)
	}
	p.rem[0] = rem
	if sized != nil && len(rem) > 0 {
		// Size the row set for the cheapest atom's estimate — exact for a
		// single-atom scan — so appending rows never regrows it.
		n := p.estimate(&p.atoms[rem[p.cheapest(rem)]])
		sized.Vals = make([]value.Value, 0, min(n, rowsHint)*p.nvars)
	}
	p.emit = emit
	p.run(0)
	p.src, p.emit = nil, nil
	return nil
}

// FindOne is the LIMIT-1 oracle on a compiled query.
func (p *Prepared) FindOne(src Source, init logic.Subst) (logic.Subst, bool, error) {
	var found logic.Subst
	err := p.Eval(src, init, func(s logic.Subst) bool {
		found = s
		return false
	})
	return found, found != nil, err
}

// FindAll returns up to limit satisfying substitutions (limit <= 0 means
// no limit).
func (p *Prepared) FindAll(src Source, init logic.Subst, limit int) ([]logic.Subst, error) {
	var out []logic.Subst
	err := p.Eval(src, init, func(s logic.Subst) bool {
		out = append(out, s)
		return limit <= 0 || len(out) < limit
	})
	return out, err
}

// Count returns the number of satisfying substitutions.
func (p *Prepared) Count(src Source) (int, error) {
	n := 0
	err := p.Eval(src, nil, func(logic.Subst) bool { n++; return true })
	return n, err
}

// run grounds the atoms remaining at depth (p.rem[depth]), recursively.
func (p *Prepared) run(depth int) {
	if p.stopped {
		return
	}
	remaining := p.rem[depth]
	if len(remaining) == 0 {
		if !p.checksHold(true) {
			return
		}
		if !p.emit() {
			p.stopped = true
		}
		return
	}
	// Prune early using any check whose variables are all bound.
	if !p.checksHold(false) {
		return
	}
	pick := 0
	if p.planner == PlanDynamic {
		pick = p.cheapest(remaining)
	}
	atomIdx := remaining[pick]
	rest := p.rem[depth+1][:0]
	rest = append(rest, remaining[:pick]...)
	rest = append(rest, remaining[pick+1:]...)
	p.rem[depth+1] = rest
	ca := &p.atoms[atomIdx]
	ca.nextDepth = depth + 1
	p.enumerate(ca)
}

// lookupVar is the bind function handed to residual checks; it resolves a
// variable name through the environment.
func (p *Prepared) lookupVar(name string) (value.Value, bool) {
	slot, ok := p.env.SlotOf(name)
	if !ok {
		return value.Value{}, false
	}
	return p.env.Value(slot)
}

// checksHold evaluates residual checks. If final is false, checks whose
// variables are not yet all bound are skipped (they will be re-checked);
// if final is true, unbound variables are an internal error caught as a
// failed check.
func (p *Prepared) checksHold(final bool) bool {
	for _, cc := range p.checks {
		allBound := true
		for _, s := range cc.slots {
			if _, ok := p.env.Value(s); !ok {
				allBound = false
				break
			}
		}
		if !allBound {
			if final {
				return false
			}
			continue
		}
		if !cc.c.Pred(p.bindFn) {
			return false
		}
	}
	return true
}

// cheapest returns the position in remaining of the atom with the lowest
// cardinality estimate under the current bindings.
func (p *Prepared) cheapest(remaining []int) int {
	best, bestCost := 0, int(^uint(0)>>1)
	for pos, idx := range remaining {
		cost := p.estimate(&p.atoms[idx])
		if cost < bestCost {
			best, bestCost = pos, cost
		}
	}
	return best
}

// resolve walks argument col of ca to a constant, or ok=false while it is
// still unbound.
func (ca *compiledAtom) resolve(col int) (value.Value, bool) {
	if ca.slots[col] < 0 {
		return ca.consts[col], true
	}
	return ca.p.env.Value(ca.slots[col])
}

// estimate approximates how many rows match ca under the current
// bindings: the smallest single-column or fully-bound composite index
// bucket, or the full relation size if no column is bound. Fully ground
// atoms cost 0 (a containment probe).
func (p *Prepared) estimate(ca *compiledAtom) int {
	bound := 0
	minBucket := -1
	for col := range ca.slots {
		v, ok := ca.resolve(col)
		ca.ground[col] = ok
		if !ok {
			continue
		}
		ca.vals[col] = v
		bound++
		n := p.src.IndexCount(ca.rel, col, v)
		if minBucket < 0 || n < minBucket {
			minBucket = n
		}
	}
	if bound == len(ca.slots) {
		return 0
	}
	if sch, ok := p.src.SchemaOf(ca.rel); ok {
		for ix, cols := range sch.Indexes {
			key, ok := p.compositeKey(cols, ca)
			if !ok {
				continue
			}
			if n := p.src.CompositeCount(ca.rel, ix, key); minBucket < 0 || n < minBucket {
				minBucket = n
			}
		}
	}
	if minBucket >= 0 {
		return minBucket
	}
	return p.src.Len(ca.rel)
}

// compositeKey builds the projection key for a composite index if every
// indexed column is bound, reusing the evaluator's key buffer.
func (p *Prepared) compositeKey(cols []int, ca *compiledAtom) (string, bool) {
	buf := p.keyBuf[:0]
	for _, c := range cols {
		if !ca.ground[c] {
			return "", false
		}
		buf = ca.vals[c].AppendBinary(buf)
	}
	p.keyBuf = buf
	return string(buf), true
}

// enumerate scans the tuples matching ca under the current bindings,
// recursing (via matchTuple) into the remaining atoms for each. It
// resolves the arguments once and picks the cheapest access path: a
// containment probe when ground, else the smallest single-column or
// fully-bound composite index bucket, else a full scan.
func (p *Prepared) enumerate(ca *compiledAtom) {
	allGround := true
	bestCol := -1
	var bestVal value.Value
	bestCount := -1
	for i := range ca.slots {
		v, ok := ca.resolve(i)
		ca.ground[i] = ok
		if !ok {
			allGround = false
			continue
		}
		ca.vals[i] = v
		n := p.src.IndexCount(ca.rel, i, v)
		if bestCount < 0 || n < bestCount {
			bestCol, bestVal, bestCount = i, v, n
		}
	}
	if allGround {
		copy(ca.tup, ca.vals)
		if p.src.Contains(ca.rel, ca.tup) {
			p.run(ca.nextDepth)
		}
		return
	}
	bestComp, bestCompKey := -1, ""
	if sch, ok := p.src.SchemaOf(ca.rel); ok {
		for ix, cols := range sch.Indexes {
			key, ok := p.compositeKey(cols, ca)
			if !ok {
				continue
			}
			if n := p.src.CompositeCount(ca.rel, ix, key); bestCount < 0 || n < bestCount {
				bestComp, bestCompKey, bestCount = ix, key, n
			}
		}
	}
	if bestComp >= 0 {
		p.src.CompositeScan(ca.rel, bestComp, bestCompKey, ca.match)
		return
	}
	if bestCol >= 0 {
		p.src.IndexScan(ca.rel, bestCol, bestVal, ca.match)
		return
	}
	p.src.Scan(ca.rel, ca.match)
}

// matchTuple is the scan callback: it checks tup against the arguments
// resolved at enumerate time, binds the still-free variables on the
// trail (repeated variables must agree), recurses, and undoes the
// bindings on the way out. Returning true keeps the scan going.
func (ca *compiledAtom) matchTuple(tup value.Tuple) bool {
	p := ca.p
	if p.stopped {
		return false
	}
	for i, g := range ca.ground {
		if g && tup[i] != ca.vals[i] {
			return true // mismatch; keep scanning
		}
	}
	mark := p.env.Mark()
	for i, g := range ca.ground {
		if g {
			continue
		}
		v, end, bound := p.env.ResolveSlot(ca.slots[i])
		if !bound {
			p.env.Bind(end, logic.Const(tup[i]))
		} else if v != tup[i] {
			p.env.Undo(mark)
			return true
		}
	}
	p.run(ca.nextDepth)
	p.env.Undo(mark)
	return !p.stopped
}

// NeqCheck builds a residual check asserting that two terms are not equal
// once bound. Used to encode the ¬ϕ conjuncts of Theorem 3.5.
func NeqCheck(a, b logic.Term) Check {
	var vars []string
	if a.IsVar() {
		vars = append(vars, a.Name())
	}
	if b.IsVar() {
		vars = append(vars, b.Name())
	}
	return Check{
		Vars:  vars,
		Label: fmt.Sprintf("%v != %v", a, b),
		Pred: func(bind func(string) (value.Value, bool)) bool {
			av, aok := resolveTerm(a, bind)
			bv, bok := resolveTerm(b, bind)
			if !aok || !bok {
				return true // not yet decidable; final pass re-checks
			}
			return av != bv
		},
	}
}

// EqCheck builds a residual check asserting equality of two terms.
func EqCheck(a, b logic.Term) Check {
	var vars []string
	if a.IsVar() {
		vars = append(vars, a.Name())
	}
	if b.IsVar() {
		vars = append(vars, b.Name())
	}
	return Check{
		Vars:  vars,
		Label: fmt.Sprintf("%v = %v", a, b),
		Pred: func(bind func(string) (value.Value, bool)) bool {
			av, aok := resolveTerm(a, bind)
			bv, bok := resolveTerm(b, bind)
			if !aok || !bok {
				return true
			}
			return av == bv
		},
	}
}

func resolveTerm(t logic.Term, bind func(string) (value.Value, bool)) (value.Value, bool) {
	if !t.IsVar() {
		return t.Value(), true
	}
	return bind(t.Name())
}
