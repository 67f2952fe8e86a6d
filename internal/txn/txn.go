// Package txn defines resource transactions (§2 of the paper): a
// conjunctive body of hard and OPTIONAL atoms with a CHOOSE 1 semantics,
// followed by an update portion of blind single-tuple inserts and deletes.
// The package provides validation (range restriction), renaming-apart,
// a parser and printer for the paper's Datalog-like notation, and a stable
// serialization used by the WAL-backed pending-transactions table.
package txn

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/hash"
	"repro/internal/logic"
)

// BodyAtom is one conjunct of a transaction body. Optional marks the soft
// preferences (underlined atoms in the paper): they do not constrain
// admission, and are satisfied at grounding time if possible.
type BodyAtom struct {
	Atom     logic.Atom
	Optional bool
}

// String renders the atom, prefixing optional atoms with '?'.
func (b BodyAtom) String() string {
	if b.Optional {
		return "?" + b.Atom.String()
	}
	return b.Atom.String()
}

// Op is one update operation: a blind insert (+) or delete (-) of a single
// tuple, possibly containing variables bound by the body.
type Op struct {
	Insert bool
	Atom   logic.Atom
}

// String renders the op as +R(...) or -R(...).
func (o Op) String() string {
	if o.Insert {
		return "+" + o.Atom.String()
	}
	return "-" + o.Atom.String()
}

// T is a resource transaction: U :-1 B. The zero value is an empty,
// invalid transaction.
type T struct {
	// ID is assigned by the quantum database at admission; 0 before.
	ID int64
	// Update is the FOLLOWED BY block: blind writes executed at grounding.
	Update []Op
	// Body is the conjunctive query with hard and optional atoms.
	Body []BodyAtom
	// Tag is an optional application label (e.g. the requesting user);
	// carried through serialization, not interpreted by the engine.
	Tag string
	// PartnerTag, when non-empty, marks this as an entangled resource
	// transaction coordinating with the transaction(s) tagged PartnerTag
	// (§5.1); the entanglement policy grounds both when partners meet.
	PartnerTag string

	// View memoization. The engine derives solver views of a transaction
	// — Stripped (optional atoms removed) and Hardened (optional atoms
	// promoted) — once per transaction and reuses the same *T afterwards,
	// so each view computes its Shape once. The memos publish by
	// compare-and-swap: optimistic admissions speculate over partition
	// snapshots WITHOUT holding the owning partition's shard, so two
	// goroutines may derive a view of the same transaction concurrently —
	// both then observe the single published pointer (the loser's copy is
	// discarded).
	stripped atomic.Pointer[T]
	hardened atomic.Pointer[T]
	shape    atomic.Pointer[string]
	ckey     atomic.Uint64
	ckeyOK   atomic.Bool
	// wire memoizes Marshal the same way: an admitted transaction is
	// marshaled into its WAL record and again by every checkpoint that
	// finds it pending.
	wire atomic.Pointer[[]byte]
}

// HardAtoms returns the non-optional body atoms.
func (t *T) HardAtoms() []logic.Atom {
	var out []logic.Atom
	for _, b := range t.Body {
		if !b.Optional {
			out = append(out, b.Atom)
		}
	}
	return out
}

// OptionalAtoms returns the optional body atoms.
func (t *T) OptionalAtoms() []logic.Atom {
	var out []logic.Atom
	for _, b := range t.Body {
		if b.Optional {
			out = append(out, b.Atom)
		}
	}
	return out
}

// Stripped returns a view of t without optional atoms: the admission
// invariant of §2 covers only non-optional atoms. When t has no optional
// atoms the view is t itself; otherwise the copy is memoized, so repeated
// calls return the same pointer, whose Shape is computed once (see the
// memoization note on T).
func (t *T) Stripped() *T {
	if s := t.stripped.Load(); s != nil {
		return s
	}
	hasOpt := false
	for _, b := range t.Body {
		if b.Optional {
			hasOpt = true
			break
		}
	}
	if !hasOpt {
		t.stripped.CompareAndSwap(nil, t)
		return t
	}
	c := &T{ID: t.ID, Tag: t.Tag, PartnerTag: t.PartnerTag, Update: t.Update}
	for _, b := range t.Body {
		if !b.Optional {
			c.Body = append(c.Body, b)
		}
	}
	if t.stripped.CompareAndSwap(nil, c) {
		return c
	}
	return t.stripped.Load()
}

// Hardened returns a view of t with optional atoms promoted to hard ones,
// used for coordinated pair grounding (§5.1 forward constraints). Like
// Stripped, the view is t itself when t has no optional atoms, and is
// memoized otherwise.
func (t *T) Hardened() *T {
	if h := t.hardened.Load(); h != nil {
		return h
	}
	hasOpt := false
	for _, b := range t.Body {
		if b.Optional {
			hasOpt = true
			break
		}
	}
	if !hasOpt {
		t.hardened.CompareAndSwap(nil, t)
		return t
	}
	c := &T{ID: t.ID, Tag: t.Tag, PartnerTag: t.PartnerTag, Update: t.Update}
	for _, b := range t.Body {
		c.Body = append(c.Body, BodyAtom{Atom: b.Atom})
	}
	if t.hardened.CompareAndSwap(nil, c) {
		return c
	}
	return t.hardened.Load()
}

// Shape returns the transaction's canonical shape: the transaction with
// every constant abstracted to a positional parameter. It records, in
// order, each body atom's optional flag, each update's sign, and per
// atom the relation name, the arity and, per argument, either a constant
// marker or the variable's index of first occurrence. Two transactions
// with equal shapes differ only in their constants and variable names,
// so a query compiled for one evaluates the other once its constants
// are rebound. The shape is the full encoding, not a hash: a cache keyed
// by it can never confuse two shapes. It is memoized; see the
// synchronization note on T.
func (t *T) Shape() string {
	if s := t.shape.Load(); s != nil {
		return *s
	}
	var stack [128]byte
	buf := stack[:0]
	idx := make(map[string]int)
	appendAtom := func(a logic.Atom) {
		buf = binary.AppendUvarint(buf, uint64(len(a.Rel)))
		buf = append(buf, a.Rel...)
		buf = binary.AppendUvarint(buf, uint64(len(a.Args)))
		for _, arg := range a.Args {
			if !arg.IsVar() {
				buf = append(buf, 'c')
				continue
			}
			n, ok := idx[arg.Name()]
			if !ok {
				n = len(idx)
				idx[arg.Name()] = n
			}
			buf = append(buf, 'v')
			buf = binary.AppendUvarint(buf, uint64(n))
		}
	}
	for _, b := range t.Body {
		if b.Optional {
			buf = append(buf, '?')
		} else {
			buf = append(buf, '.')
		}
		appendAtom(b.Atom)
	}
	buf = append(buf, '|')
	for _, u := range t.Update {
		if u.Insert {
			buf = append(buf, '+')
		} else {
			buf = append(buf, '-')
		}
		appendAtom(u.Atom)
	}
	s := string(buf)
	if t.shape.CompareAndSwap(nil, &s) {
		return s
	}
	return *t.shape.Load()
}

// ContentKey returns a structural hash of the transaction that is
// invariant under variable renaming: variables hash as their index of
// first occurrence, so two renamed-apart copies of the same transaction
// text produce equal keys. The quantum database uses it to recognize
// repeated satisfiability questions (e.g. resubmission of a rejected
// transaction) across distinct transaction IDs. The key is memoized; see
// the synchronization note on T.
func (t *T) ContentKey() uint64 {
	if t.ckeyOK.Load() {
		return t.ckey.Load()
	}
	h := uint64(hash.Offset64)
	idx := make(map[string]int)
	hashAtom := func(a logic.Atom) {
		h = hash.String(h, a.Rel)
		for _, arg := range a.Args {
			if arg.IsVar() {
				n, ok := idx[arg.Name()]
				if !ok {
					n = len(idx)
					idx[arg.Name()] = n
				}
				h = hash.Byte(h, 'v')
				h = hash.Mix(h, uint64(n))
			} else {
				h = hash.Byte(h, 'c')
				h = hash.String(h, arg.Value().Quoted())
			}
		}
	}
	for _, b := range t.Body {
		if b.Optional {
			h = hash.Byte(h, '?')
		} else {
			h = hash.Byte(h, '.')
		}
		hashAtom(b.Atom)
	}
	h = hash.Byte(h, '|')
	for _, u := range t.Update {
		if u.Insert {
			h = hash.Byte(h, '+')
		} else {
			h = hash.Byte(h, '-')
		}
		hashAtom(u.Atom)
	}
	// Store the key before the flag: a reader that observes the flag set
	// then sees a fully-written key. Racing computations produce the same
	// h, so last-writer-wins is harmless.
	t.ckey.Store(h)
	t.ckeyOK.Store(true)
	return h
}

// Vars returns the variable names of the whole transaction in order of
// first occurrence (body first, then update).
func (t *T) Vars() []string {
	var vars []string
	for _, b := range t.Body {
		vars = b.Atom.Vars(vars)
	}
	for _, u := range t.Update {
		vars = u.Atom.Vars(vars)
	}
	return vars
}

// Validate checks structural sanity:
//   - at least one update op;
//   - range restriction: every variable in the update portion appears in a
//     hard (non-optional) body atom, so admission satisfiability implies
//     executability;
//   - no variable occurs only optionally and in the update.
func (t *T) Validate() error {
	if len(t.Update) == 0 {
		return fmt.Errorf("txn: transaction with empty update portion")
	}
	var hard []string
	for _, b := range t.Body {
		if !b.Optional {
			hard = b.Atom.Vars(hard)
		}
	}
	hardSet := make(map[string]bool, len(hard))
	for _, v := range hard {
		hardSet[v] = true
	}
	for _, u := range t.Update {
		for _, v := range u.Atom.Vars(nil) {
			if !hardSet[v] {
				return fmt.Errorf("txn: update variable %q not bound by a hard body atom (range restriction)", v)
			}
		}
	}
	return nil
}

// RenamedApart returns a copy of t whose variables carry a "#id" suffix so
// distinct transactions share no variables when composed (the standing
// assumption of Lemma 3.4).
func (t *T) RenamedApart() *T {
	r := logic.NewRenamer(t.ID)
	c := &T{ID: t.ID, Tag: t.Tag, PartnerTag: t.PartnerTag}
	c.Body = make([]BodyAtom, len(t.Body))
	for i, b := range t.Body {
		c.Body[i] = BodyAtom{Atom: b.Atom.Rename(r.Rename), Optional: b.Optional}
	}
	c.Update = make([]Op, len(t.Update))
	for i, u := range t.Update {
		c.Update[i] = Op{Insert: u.Insert, Atom: u.Atom.Rename(r.Rename)}
	}
	return c
}

// Inserts returns the insert ops of the update portion.
func (t *T) Inserts() []logic.Atom {
	var out []logic.Atom
	for _, u := range t.Update {
		if u.Insert {
			out = append(out, u.Atom)
		}
	}
	return out
}

// Deletes returns the delete ops of the update portion.
func (t *T) Deletes() []logic.Atom {
	var out []logic.Atom
	for _, u := range t.Update {
		if !u.Insert {
			out = append(out, u.Atom)
		}
	}
	return out
}

// String renders the transaction in the parseable Datalog-like notation:
//
//	-A(f1, s1), +B('Mickey', f1, s1) :-1 A(f1, s1), ?B('Goofy', f1, s2)
func (t *T) String() string {
	var b strings.Builder
	for i, u := range t.Update {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(u.String())
	}
	b.WriteString(" :-1 ")
	for i, at := range t.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(at.String())
	}
	return b.String()
}

// envelope is the JSON serialization written to the pending-transactions
// table. The body/update go through the textual notation, which the parser
// round-trips exactly.
type envelope struct {
	ID         int64  `json:"id"`
	Tag        string `json:"tag,omitempty"`
	PartnerTag string `json:"partner,omitempty"`
	Text       string `json:"text"`
}

// Marshal serializes t for the WAL-backed pending table. The bytes are
// computed once per *T and shared by later calls, so t must not change
// after its first Marshal, and callers must not modify the result.
func (t *T) Marshal() ([]byte, error) {
	if b := t.wire.Load(); b != nil {
		return *b, nil
	}
	b, err := json.Marshal(envelope{ID: t.ID, Tag: t.Tag, PartnerTag: t.PartnerTag, Text: t.String()})
	if err != nil {
		return nil, err
	}
	t.wire.CompareAndSwap(nil, &b)
	return b, nil
}

// Unmarshal reconstructs a transaction serialized by Marshal.
func Unmarshal(data []byte) (*T, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("txn: unmarshal: %w", err)
	}
	t, err := Parse(env.Text)
	if err != nil {
		return nil, fmt.Errorf("txn: unmarshal body: %w", err)
	}
	t.ID = env.ID
	t.Tag = env.Tag
	t.PartnerTag = env.PartnerTag
	return t, nil
}
