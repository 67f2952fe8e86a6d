// Package formula implements the composed transaction bodies of §3.2.1:
// the constraint formulas whose satisfiability over the extensional store
// witnesses that every pending resource transaction still has a consistent
// grounding (Definition 3.1).
//
// Two equivalent satisfiability procedures are provided:
//
//   - Compose + Formula.FindOne: builds the explicit formula of Lemma 3.4 /
//     Theorem 3.5 (atoms, unification predicates ϕ and their negations) and
//     evaluates it by backtracking over the store. This mirrors the paper's
//     formal development.
//   - SolveChain: grounds the transactions sequentially on one delta
//     overlay, marking it before each candidate grounding and undoing after
//     backtracking. This operationalizes Definition 3.1 directly and also
//     handles insert-then-delete chains between non-adjacent transactions.
//
// The quantum database uses SolveChain in production and the composed
// formula for exposition and cross-checking; the test suite asserts they
// agree.
//
// SolveChain compiles each transaction body to a relstore.Prepared, and
// its update atoms to plans over that query's slots, before evaluating
// it; with ChainOptions.Prep set to a PrepCache, those compilations
// survive across solves, keyed by transaction shape (txn.T.Shape): a
// transaction rebinds its constants into the body compiled for an
// earlier one of its shape, so a stream of same-template transactions
// compiles once per shape rather than once per transaction.
package formula

import (
	"fmt"
	"strings"

	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/txn"
)

// Formula is a constraint formula over relational atoms and unification
// predicates.
type Formula interface {
	fstring(b *strings.Builder)
	isFormula()
}

// And is a conjunction; children are evaluated left to right, so
// constructors must order atom conjuncts before predicates over their
// variables.
type And struct{ Fs []Formula }

// Or is a disjunction; branches are tried left to right.
type Or struct{ Fs []Formula }

// AtomF asserts that the atom grounds on a tuple of the store.
type AtomF struct{ Atom logic.Atom }

// PredF asserts a unification predicate ϕ (a conjunction of equalities).
type PredF struct{ Pred logic.UnifPred }

// NotPredF asserts the negation ¬ϕ of a unification predicate.
type NotPredF struct{ Pred logic.UnifPred }

// TrueF is the trivially satisfied formula.
type TrueF struct{}

// FalseF is the unsatisfiable formula.
type FalseF struct{}

func (And) isFormula()      {}
func (Or) isFormula()       {}
func (AtomF) isFormula()    {}
func (PredF) isFormula()    {}
func (NotPredF) isFormula() {}
func (TrueF) isFormula()    {}
func (FalseF) isFormula()   {}

func (f And) fstring(b *strings.Builder) {
	b.WriteByte('(')
	for i, c := range f.Fs {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		c.fstring(b)
	}
	b.WriteByte(')')
}

func (f Or) fstring(b *strings.Builder) {
	b.WriteByte('{')
	for i, c := range f.Fs {
		if i > 0 {
			b.WriteString(" ∨ ")
		}
		c.fstring(b)
	}
	b.WriteByte('}')
}

func (f AtomF) fstring(b *strings.Builder)    { b.WriteString(f.Atom.String()) }
func (f PredF) fstring(b *strings.Builder)    { b.WriteString("{" + f.Pred.String() + "}") }
func (f NotPredF) fstring(b *strings.Builder) { b.WriteString("¬{" + f.Pred.String() + "}") }
func (TrueF) fstring(b *strings.Builder)      { b.WriteString("true") }
func (FalseF) fstring(b *strings.Builder)     { b.WriteString("false") }

// String renders the formula in roughly the paper's notation.
func String(f Formula) string {
	var b strings.Builder
	f.fstring(&b)
	return b.String()
}

// Compose builds the composed body of a sequence of resource transactions
// per Theorem 3.5, generalized to N transactions as in Figure 3: each hard
// body atom b of transaction Ti is constrained against the update portions
// of all earlier transactions Tj (j < i):
//
//   - for every earlier delete d with a nontrivial unifier: b's
//     store-grounding branch carries the conjunct ¬ϕ(b, d);
//   - for every earlier insert ins with a nontrivial unifier: the
//     disjunct ϕ(b, ins) is added, allowing b to ground on the
//     virtual tuple instead of the store.
//
// Transactions must already be renamed apart (txn.T.RenamedApart).
// Optional atoms do not participate: the invariant of §2 covers only
// non-optional atoms.
func Compose(ts []*txn.T) Formula {
	var conj []Formula
	for i, t := range ts {
		for _, b := range t.HardAtoms() {
			conj = append(conj, composeAtom(b, ts[:i]))
		}
	}
	if len(conj) == 0 {
		return TrueF{}
	}
	return And{Fs: conj}
}

// composeAtom builds the constraint for one body atom against all earlier
// transactions' updates.
func composeAtom(b logic.Atom, earlier []*txn.T) Formula {
	core := []Formula{AtomF{Atom: b}}
	var alts []Formula
	for _, e := range earlier {
		for _, d := range e.Deletes() {
			p := logic.UnificationPredicate(b, d)
			if p.IsTriviallyFalse() {
				continue // cannot collide; no constraint
			}
			core = append(core, NotPredF{Pred: p})
		}
		for _, ins := range e.Inserts() {
			p := logic.UnificationPredicate(b, ins)
			if p.IsTriviallyFalse() {
				continue // cannot match the inserted tuple
			}
			alts = append(alts, PredF{Pred: p})
		}
	}
	var coreF Formula
	if len(core) == 1 {
		coreF = core[0]
	} else {
		coreF = And{Fs: core}
	}
	if len(alts) == 0 {
		return coreF
	}
	return Or{Fs: append([]Formula{coreF}, alts...)}
}

// AtomCount returns the number of relational atoms in f; the paper bounds
// this by the 61-join MySQL limit, motivating the k-bound on pending
// transactions.
func AtomCount(f Formula) int {
	switch x := f.(type) {
	case And:
		n := 0
		for _, c := range x.Fs {
			n += AtomCount(c)
		}
		return n
	case Or:
		n := 0
		for _, c := range x.Fs {
			n += AtomCount(c)
		}
		return n
	case AtomF:
		return 1
	default:
		return 0
	}
}

// Eval enumerates substitutions satisfying f over src, extending init,
// calling emit for each; emit returns false to stop. Eval reports an error
// if a negated predicate cannot be decided because the construction left a
// variable unbound (a violation of the ordering invariant documented on
// And).
func Eval(f Formula, src relstore.Source, init logic.Subst, emit func(logic.Subst) bool) error {
	e := &evaluator{src: src, emit: emit}
	s := init
	if s == nil {
		s = logic.NewSubst()
	} else {
		s = s.Clone()
	}
	e.eval(f, s, func(s2 logic.Subst) bool { return e.emit(s2) })
	return e.err
}

// FindOne returns a satisfying substitution of f over src, or ok=false.
func FindOne(f Formula, src relstore.Source, init logic.Subst) (logic.Subst, bool, error) {
	var found logic.Subst
	err := Eval(f, src, init, func(s logic.Subst) bool {
		// Emitted substitutions are never mutated after emission: atom
		// branches hand out fresh evaluator snapshots and predicate
		// branches clone before extending. Retain without cloning.
		found = s
		return false
	})
	if err != nil {
		return nil, false, err
	}
	return found, found != nil, nil
}

// Count returns the number of satisfying substitutions (possible worlds of
// the composed grounding choice space).
func Count(f Formula, src relstore.Source) (int, error) {
	n := 0
	err := Eval(f, src, nil, func(logic.Subst) bool { n++; return true })
	return n, err
}

type evaluator struct {
	src     relstore.Source
	emit    func(logic.Subst) bool
	err     error
	stopped bool
}

// eval runs f under s; k is the success continuation and returns false to
// stop the whole enumeration.
func (e *evaluator) eval(f Formula, s logic.Subst, k func(logic.Subst) bool) {
	if e.stopped || e.err != nil {
		return
	}
	switch x := f.(type) {
	case TrueF:
		if !k(s) {
			e.stopped = true
		}
	case FalseF:
		// No solutions.
	case And:
		e.evalAnd(x.Fs, s, k)
	case Or:
		for _, c := range x.Fs {
			e.eval(c, s, k)
			if e.stopped || e.err != nil {
				return
			}
		}
	case AtomF:
		EnumerateAtom(e.src, x.Atom, s, func(s2 logic.Subst) bool {
			if !k(s2) {
				e.stopped = true
			}
			return !e.stopped && e.err == nil
		})
	case PredF:
		s2, ok := applyPred(x.Pred, s)
		if !ok {
			return
		}
		if !k(s2) {
			e.stopped = true
		}
	case NotPredF:
		holds, decided := predHolds(x.Pred, s)
		if !decided {
			e.err = fmt.Errorf("formula: ¬{%v} undecidable: unbound variable", x.Pred)
			return
		}
		if holds {
			return // ϕ holds, so ¬ϕ fails
		}
		if !k(s) {
			e.stopped = true
		}
	default:
		e.err = fmt.Errorf("formula: unknown node %T", f)
	}
}

func (e *evaluator) evalAnd(fs []Formula, s logic.Subst, k func(logic.Subst) bool) {
	if len(fs) == 0 {
		if !k(s) {
			e.stopped = true
		}
		return
	}
	e.eval(fs[0], s, func(s2 logic.Subst) bool {
		e.evalAnd(fs[1:], s2, k)
		return !e.stopped && e.err == nil
	})
}

// applyPred extends s with the equalities of ϕ, failing if any equality is
// violated. Unbound-unbound equalities alias the variables.
func applyPred(p logic.UnifPred, s logic.Subst) (logic.Subst, bool) {
	if p.IsTriviallyFalse() {
		return nil, false
	}
	out := s.Clone()
	for _, eq := range p.Eqs {
		l := out.Walk(eq.Left)
		r := out.Walk(eq.Right)
		switch {
		case l == r:
		case l.IsVar():
			out[l.Name()] = r
		case r.IsVar():
			out[r.Name()] = l
		default:
			return nil, false
		}
	}
	return out, true
}

// predHolds decides ϕ under s; decided=false if a variable is unbound.
func predHolds(p logic.UnifPred, s logic.Subst) (holds, decided bool) {
	if p.IsTriviallyFalse() {
		return false, true
	}
	for _, eq := range p.Eqs {
		l := s.Walk(eq.Left)
		r := s.Walk(eq.Right)
		if l.IsVar() || r.IsVar() {
			// An aliased pair of unbound variables is equal by definition.
			if l.IsVar() && r.IsVar() && l == r {
				continue
			}
			return false, false
		}
		if l.Value() != r.Value() {
			return false, true
		}
	}
	return true, true
}

// EnumerateAtom finds tuples of src matching atom under s and calls k with
// the extended substitution; k returns false to stop. It picks the
// smallest index bucket among bound columns.
func EnumerateAtom(src relstore.Source, atom logic.Atom, s logic.Subst, k func(logic.Subst) bool) {
	q := relstore.Query{Atoms: []logic.Atom{atom}}
	_ = q.Eval(src, s, k)
}
