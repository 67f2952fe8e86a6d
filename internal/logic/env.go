package logic

import "repro/internal/value"

// Env is a slot-indexed binding environment with an undo trail — the
// classic WAM/Prolog representation of substitutions, used by the
// conjunctive-query evaluator in place of map-typed Subst values.
//
// A query-compile-time variable table maps each variable name to a dense
// slot index; bindings live in a flat array indexed by slot; and every
// binding is recorded on a trail so backtracking is Mark/Undo (truncate
// the trail, unbind the popped slots) instead of cloning a map per
// candidate tuple. Subst remains the public snapshot type: Snapshot
// materializes the current bindings at emit boundaries, and Load seeds
// the environment from an initial Subst.
//
// Bindings may alias variables (slot → variable term), exactly as Subst
// entries may; Walk and ResolveSlot follow such chains the way
// Subst.Walk does, so snapshots are structurally identical to the maps
// the map-based evaluator produced.
//
// An Env is not safe for concurrent use.
type Env struct {
	slots map[string]int
	cells []envCell
	trail []int // slots in binding order
}

// envCell is one slot: its variable name and current binding. One slice
// of cells (rather than parallel name/bind/bound arrays) keeps Env
// construction to three allocations; queries compile one Env each.
type envCell struct {
	name  string
	bind  Term // meaningful only while bound
	bound bool
}

// NewEnv returns an empty environment.
func NewEnv() *Env { return &Env{slots: make(map[string]int)} }

// NewEnvCap returns an empty environment pre-sized for n variables, so
// interning them never regrows the slot table.
func NewEnvCap(n int) *Env {
	return &Env{
		slots: make(map[string]int, n),
		cells: make([]envCell, 0, n),
		trail: make([]int, 0, n),
	}
}

// Slot interns a variable name, returning its slot index. Interning is
// idempotent; compile steps call this once per distinct variable.
func (e *Env) Slot(name string) int {
	if s, ok := e.slots[name]; ok {
		return s
	}
	s := len(e.cells)
	e.slots[name] = s
	e.cells = append(e.cells, envCell{name: name})
	return s
}

// SlotOf looks up an interned variable without interning it.
func (e *Env) SlotOf(name string) (int, bool) {
	s, ok := e.slots[name]
	return s, ok
}

// Len returns the number of interned variables.
func (e *Env) Len() int { return len(e.cells) }

// Name returns the variable interned at slot.
func (e *Env) Name(slot int) string { return e.cells[slot].name }

// Bound reports whether slot currently carries a binding.
func (e *Env) Bound(slot int) bool { return e.cells[slot].bound }

// Bind records slot → t on the trail. The slot must be unbound; callers
// resolve alias chains first (ResolveSlot) and bind the chain's end,
// mirroring how Subst.Bind extends the walked variable.
func (e *Env) Bind(slot int, t Term) {
	e.cells[slot].bind = t
	e.cells[slot].bound = true
	e.trail = append(e.trail, slot)
}

// Mark returns the current trail position for a later Undo.
func (e *Env) Mark() int { return len(e.trail) }

// Undo unbinds every slot bound since mark, newest first.
func (e *Env) Undo(mark int) {
	for i := len(e.trail) - 1; i >= mark; i-- {
		s := e.trail[i]
		e.cells[s].bound = false
		e.cells[s].bind = Term{}
	}
	e.trail = e.trail[:mark]
}

// Reset unbinds everything but keeps the slot table, so a compiled query
// can be re-evaluated without re-interning its variables.
func (e *Env) Reset() { e.Undo(0) }

// Walk resolves t through the bindings until it reaches a constant or an
// unbound (or unknown) variable, mirroring Subst.Walk.
func (e *Env) Walk(t Term) Term {
	for t.IsVar() {
		s, ok := e.slots[t.name]
		if !ok || !e.cells[s].bound {
			return t
		}
		t = e.cells[s].bind
	}
	return t
}

// ResolveSlot follows the alias chain from slot. It returns the chain's
// constant value (ok=true), or the end-of-chain unbound slot (ok=false) —
// the slot a new binding must be recorded against.
func (e *Env) ResolveSlot(slot int) (v value.Value, end int, ok bool) {
	for e.cells[slot].bound {
		t := e.cells[slot].bind
		if !t.IsVar() {
			return t.Value(), slot, true
		}
		slot = e.Slot(t.name)
	}
	return value.Value{}, slot, false
}

// Value resolves slot to its constant value, or ok=false when the chain
// ends at an unbound variable.
func (e *Env) Value(slot int) (value.Value, bool) {
	v, _, ok := e.ResolveSlot(slot)
	return v, ok
}

// Load seeds the environment from a Subst. Entries are bound verbatim
// (alias chains preserved), so a later Snapshot reproduces s exactly,
// extended by whatever the evaluation binds on top.
func (e *Env) Load(s Subst) {
	for k, v := range s {
		slot := e.Slot(k)
		if v.IsVar() {
			e.Slot(v.name) // chains must stay walkable by slot
		}
		e.Bind(slot, v)
	}
}

// Snapshot materializes the current bindings as a fresh Subst. Only emit
// boundaries pay this allocation; backtracking never does.
func (e *Env) Snapshot() Subst {
	s := make(Subst, len(e.trail))
	for _, slot := range e.trail {
		s[e.cells[slot].name] = e.cells[slot].bind
	}
	return s
}
