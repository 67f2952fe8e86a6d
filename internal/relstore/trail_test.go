package relstore

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/value"
)

// ---- Allocation regression guards for the trail-based engine ----

// allocTable builds R(a, b) with rows (i%groups, i) for i in [0, n).
func allocTable(t testing.TB, n, groups int) *DB {
	t.Helper()
	db := NewDB()
	db.MustCreateTable(Schema{Name: "R", Columns: []string{"a", "b"}, Key: []int{1}})
	for i := 0; i < n; i++ {
		db.MustInsert("R", value.Tuple{value.NewInt(int64(i % groups)), value.NewInt(int64(i))})
	}
	return db
}

// TestEvalAllocsPerEmittedRow pins the core property of the trail-based
// engine: an indexed single-atom Eval over a 1k-row table performs O(1)
// allocations per emitted row (the Subst snapshot), not O(bindings) map
// clones per candidate tuple.
func TestEvalAllocsPerEmittedRow(t *testing.T) {
	const rows = 1000
	db := allocTable(t, rows, 1) // all rows in one index bucket of column a
	q := Query{Atoms: []logic.Atom{logic.NewAtom("R", logic.Int(0), logic.Var("y"))}}
	p := q.Compile()
	emitted := 0
	avg := testing.AllocsPerRun(5, func() {
		emitted = 0
		if err := p.Eval(db, nil, func(logic.Subst) bool { emitted++; return true }); err != nil {
			t.Fatal(err)
		}
	})
	if emitted != rows {
		t.Fatalf("emitted %d rows, want %d", emitted, rows)
	}
	perRow := avg / float64(rows)
	// One snapshot map per row costs ~2 allocations; anything near the
	// old map-clone regime would be well past this bound.
	if perRow > 6 {
		t.Fatalf("%.2f allocs per emitted row, want <= 6 (total %.0f over %d rows)", perRow, avg, rows)
	}
}

// TestRowsAllocsIndependentOfRowCount pins the slot-valued emit: Rows
// builds no Subst, so an indexed scan allocates the row set (header,
// column names, one exactly-sized value slice) however many rows it
// returns.
func TestRowsAllocsIndependentOfRowCount(t *testing.T) {
	allocs := func(rows int) float64 {
		db := allocTable(t, rows, 1)
		p := Query{Atoms: []logic.Atom{logic.NewAtom("R", logic.Int(0), logic.Var("y"))}}.Compile()
		return testing.AllocsPerRun(20, func() {
			rs, err := p.Rows(db)
			if err != nil || rs.N != rows {
				t.Fatalf("Rows: %d rows, err %v", rs.N, err)
			}
		})
	}
	if small, big := allocs(100), allocs(1000); small != big || small > 4 {
		t.Fatalf("Rows allocates %.0f objects for 100 rows, %.0f for 1000; want the same few", small, big)
	}
}

// TestFindOneAllocsIndependentOfTableSize pins the LIMIT-1 oracle: a
// compiled two-atom join probed over a 1k-row table allocates a small
// constant regardless of how many tuples are scanned and rejected.
func TestFindOneAllocsIndependentOfTableSize(t *testing.T) {
	const rows = 1000
	db := allocTable(t, rows, 10)
	db.MustCreateTable(Schema{Name: "S", Columns: []string{"b", "c"}})
	db.MustInsert("S", value.Tuple{value.NewInt(999), value.NewInt(42)})
	q := Query{Atoms: []logic.Atom{
		logic.NewAtom("R", logic.Var("x"), logic.Var("y")),
		logic.NewAtom("S", logic.Var("y"), logic.Var("z")),
	}}
	p := q.Compile()
	avg := testing.AllocsPerRun(5, func() {
		if _, ok, err := p.FindOne(db, nil); err != nil || !ok {
			t.Fatalf("FindOne: ok=%v err=%v", ok, err)
		}
	})
	if avg > 20 {
		t.Fatalf("FindOne allocated %.0f objects, want <= 20", avg)
	}
}

// TestUnifiableNoAllocs guards the read-collapse hot path: the
// partition-overlap predicate must not allocate.
func TestUnifiableNoAllocs(t *testing.T) {
	a := logic.NewAtom("R", logic.Var("x"), logic.Str("5A"), logic.Var("x"))
	b := logic.NewAtom("R", logic.Int(3), logic.Var("u"), logic.Var("v"))
	avg := testing.AllocsPerRun(10, func() {
		if !logic.Unifiable(a, b) {
			t.Fatal("atoms should unify")
		}
	})
	if avg != 0 {
		t.Fatalf("Unifiable allocated %.1f objects, want 0", avg)
	}
}

// ---- Equivalence with the map-based reference semantics ----

// refEval is a deliberately naive reimplementation of the pre-trail
// evaluator: textual atom order, full scans, one Subst clone per
// candidate tuple. It defines the reference solution set.
func refEval(src Source, atoms []logic.Atom, checks []Check, s logic.Subst, emit func(logic.Subst)) {
	bind := func(sub logic.Subst) func(string) (value.Value, bool) {
		return func(n string) (value.Value, bool) {
			t := sub.Walk(logic.Var(n))
			if t.IsVar() {
				return value.Value{}, false
			}
			return t.Value(), true
		}
	}
	if len(atoms) == 0 {
		for _, c := range checks {
			for _, v := range c.Vars {
				if _, ok := bind(s)(v); !ok {
					return
				}
			}
			if !c.Pred(bind(s)) {
				return
			}
		}
		emit(s)
		return
	}
	a := atoms[0]
	src.Scan(a.Rel, func(tup value.Tuple) bool {
		s2 := s.Clone()
		for i, at := range a.Args {
			w := s2.Walk(at)
			if w.IsVar() {
				s2[w.Name()] = logic.Const(tup[i])
			} else if w.Value() != tup[i] {
				return true
			}
		}
		refEval(src, atoms[1:], checks, s2, emit)
		return true
	})
}

// solutionSet canonicalizes emitted substitutions by projecting them onto
// vars and resolving through Walk, so alias-chain representation
// differences cannot mask (or fake) a semantic difference.
func solutionSet(t *testing.T, subs []logic.Subst, vars []string) []string {
	t.Helper()
	out := make([]string, 0, len(subs))
	for _, s := range subs {
		var b strings.Builder
		for _, v := range vars {
			w := s.Walk(logic.Var(v))
			if w.IsVar() {
				t.Fatalf("solution leaves %s unbound: %v", v, s)
			}
			fmt.Fprintf(&b, "%s=%s;", v, w.Value())
		}
		out = append(out, b.String())
	}
	sort.Strings(out)
	return out
}

func equivalenceWorld(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.MustCreateTable(Schema{Name: "Available", Columns: []string{"fno", "sno"},
		Indexes: [][]int{{0, 1}}})
	db.MustCreateTable(Schema{Name: "Adjacent", Columns: []string{"fno", "s1", "s2"}})
	db.MustCreateTable(Schema{Name: "Pairs", Columns: []string{"x", "y"}})
	seats := []string{"1A", "1B", "1C", "2A", "2B"}
	for f := int64(1); f <= 2; f++ {
		for _, s := range seats {
			db.MustInsert("Available", value.Tuple{value.NewInt(f), value.NewString(s)})
		}
		for i := 0; i+1 < len(seats); i++ {
			db.MustInsert("Adjacent", value.Tuple{value.NewInt(f), value.NewString(seats[i]), value.NewString(seats[i+1])})
		}
	}
	// Pairs includes a reflexive row so repeated variables are exercised.
	db.MustInsert("Pairs", value.Tuple{value.NewInt(1), value.NewInt(1)})
	db.MustInsert("Pairs", value.Tuple{value.NewInt(1), value.NewInt(2)})
	db.MustInsert("Pairs", value.Tuple{value.NewInt(2), value.NewInt(2)})
	return db
}

// TestTrailEquivalence checks that the trail-based evaluator returns
// exactly the reference solution set on multi-atom queries with repeated
// variables, residual checks, initial substitutions, and overlays, under
// both planners.
func TestTrailEquivalence(t *testing.T) {
	db := equivalenceWorld(t)
	ov := NewOverlay(db)
	if err := ov.Insert("Available", value.Tuple{value.NewInt(3), value.NewString("9Z")}); err != nil {
		t.Fatal(err)
	}
	if err := ov.Delete("Available", value.Tuple{value.NewInt(1), value.NewString("1A")}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		atoms  []logic.Atom
		checks []Check
		init   logic.Subst
		vars   []string
	}{
		{
			name: "join with shared vars",
			atoms: []logic.Atom{
				logic.NewAtom("Available", logic.Var("f"), logic.Var("s")),
				logic.NewAtom("Adjacent", logic.Var("f"), logic.Var("s"), logic.Var("m")),
				logic.NewAtom("Available", logic.Var("f"), logic.Var("m")),
			},
			vars: []string{"f", "s", "m"},
		},
		{
			name: "repeated variable in one atom",
			atoms: []logic.Atom{
				logic.NewAtom("Pairs", logic.Var("x"), logic.Var("x")),
			},
			vars: []string{"x"},
		},
		{
			name: "repeated variable across atoms with neq check",
			atoms: []logic.Atom{
				logic.NewAtom("Pairs", logic.Var("x"), logic.Var("y")),
				logic.NewAtom("Pairs", logic.Var("y"), logic.Var("z")),
			},
			checks: []Check{NeqCheck(logic.Var("x"), logic.Var("z"))},
			vars:   []string{"x", "y", "z"},
		},
		{
			name: "init subst with alias chain",
			atoms: []logic.Atom{
				logic.NewAtom("Available", logic.Var("f"), logic.Var("s")),
			},
			init: logic.Subst{"f": logic.Var("g"), "g": logic.Int(2)},
			vars: []string{"f", "s"},
		},
		{
			name: "eq check against constant",
			atoms: []logic.Atom{
				logic.NewAtom("Available", logic.Var("f"), logic.Var("s")),
			},
			checks: []Check{EqCheck(logic.Var("s"), logic.Str("1B"))},
			vars:   []string{"f", "s"},
		},
	}
	sources := []struct {
		name string
		src  Source
	}{{"db", db}, {"overlay", ov}}

	for _, src := range sources {
		for _, tc := range cases {
			for _, planner := range []PlannerMode{PlanDynamic, PlanStatic} {
				name := fmt.Sprintf("%s/%s/planner=%d", src.name, tc.name, planner)
				t.Run(name, func(t *testing.T) {
					var want []logic.Subst
					init := tc.init
					if init == nil {
						init = logic.NewSubst()
					}
					refEval(src.src, tc.atoms, tc.checks, init, func(s logic.Subst) {
						want = append(want, s.Clone())
					})
					q := Query{Atoms: tc.atoms, Checks: tc.checks, Planner: planner}
					got, err := q.FindAll(src.src, tc.init, 0)
					if err != nil {
						t.Fatal(err)
					}
					ws := solutionSet(t, want, tc.vars)
					gs := solutionSet(t, got, tc.vars)
					if len(ws) == 0 {
						t.Fatal("reference produced no solutions; test case is vacuous")
					}
					if strings.Join(ws, "|") != strings.Join(gs, "|") {
						t.Fatalf("solution sets differ:\nref:  %v\ngot:  %v", ws, gs)
					}
					// Count agrees with the set size (it starts from an
					// empty substitution, so only when no init is given).
					if tc.init == nil {
						n, err := q.Count(src.src)
						if err != nil || n != len(ws) {
							t.Fatalf("Count = %d, %v; want %d", n, err, len(ws))
						}
						// So does the columnar emit: the same solutions in
						// the same order, one column per atom variable in
						// order of first occurrence.
						rows, err := q.Rows(src.src)
						if err != nil {
							t.Fatal(err)
						}
						if strings.Join(rows.Cols, ",") != strings.Join(tc.vars, ",") || rows.N != len(got) || rows.Unbound != nil {
							t.Fatalf("Rows: cols %v, %d rows, unbound %v; want cols %v, %d rows", rows.Cols, rows.N, rows.Unbound, tc.vars, len(got))
						}
						for i, sub := range got {
							for c, name := range rows.Cols {
								if v, _ := rows.Cell(i, c); logic.Const(v) != sub.Walk(logic.Var(name)) {
									t.Fatalf("Rows row %d: %s = %v, FindAll has %v", i, name, v, sub.Walk(logic.Var(name)))
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestPreparedReuse evaluates one compiled query repeatedly with varying
// initial substitutions and sources, ensuring no state leaks between
// evaluations.
func TestPreparedReuse(t *testing.T) {
	db := equivalenceWorld(t)
	q := Query{Atoms: []logic.Atom{
		logic.NewAtom("Available", logic.Var("f"), logic.Var("s")),
	}}
	p := q.Compile()
	n1, err := p.Count(db)
	if err != nil {
		t.Fatal(err)
	}
	for f := int64(1); f <= 2; f++ {
		init := logic.Subst{"f": logic.Int(f)}
		got, err := p.FindAll(db, init, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 {
			t.Fatalf("f=%d: %d solutions, want 5", f, len(got))
		}
		for _, s := range got {
			if w := s.Walk(logic.Var("f")); w != logic.Int(f) {
				t.Fatalf("f=%d: solution binds f to %v", f, w)
			}
		}
	}
	n2, err := p.Count(db)
	if err != nil || n2 != n1 {
		t.Fatalf("Count after reuse = %d, %v; want %d", n2, err, n1)
	}
}

// TestOverlayDeleteThenInsertSameKey pins the in-place-update pattern a
// grounding performs (delete old row, insert new row under the same
// key): the tombstone must keep suppressing the base row rather than
// being dropped, or the deleted row is resurrected alongside the new
// one.
func TestOverlayDeleteThenInsertSameKey(t *testing.T) {
	db := NewDB()
	db.MustCreateTable(Schema{Name: "R", Columns: []string{"k", "v"}, Key: []int{0}})
	db.MustInsert("R", value.Tuple{value.NewInt(1), value.NewString("a")})
	o := NewOverlay(db)
	if err := o.Delete("R", value.Tuple{value.NewInt(1), value.NewString("a")}); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert("R", value.Tuple{value.NewInt(1), value.NewString("b")}); err != nil {
		t.Fatal(err)
	}
	if n := o.Len("R"); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	var rows []value.Tuple
	o.Scan("R", func(tup value.Tuple) bool { rows = append(rows, tup.Clone()); return true })
	if len(rows) != 1 || rows[0][1] != value.NewString("b") {
		t.Fatalf("Scan rows = %v, want only (1, 'b')", rows)
	}
	if o.Contains("R", value.Tuple{value.NewInt(1), value.NewString("a")}) {
		t.Fatal("deleted row resurrected by same-key insert")
	}
	if !o.ContainsKey("R", value.Tuple{value.NewInt(1)}.AppendKey(nil, nil)) {
		t.Fatal("re-inserted key not visible")
	}
}

// TestOverlayReset pins the pooling contract: Reset clears the delta and
// rebinds the base.
func TestOverlayReset(t *testing.T) {
	db := equivalenceWorld(t)
	o := NewOverlay(db)
	if err := o.Insert("Pairs", value.Tuple{value.NewInt(9), value.NewInt(9)}); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete("Pairs", value.Tuple{value.NewInt(1), value.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	o.Reset(db)
	q := Query{Atoms: []logic.Atom{logic.NewAtom("Pairs", logic.Var("x"), logic.Var("y"))}}
	n, err := q.Count(o)
	if err != nil || n != 3 {
		t.Fatalf("after Reset: Count = %d, %v; want 3 (delta cleared)", n, err)
	}
	// The reset overlay is reusable for a fresh speculation.
	if err := o.Insert("Pairs", value.Tuple{value.NewInt(9), value.NewInt(9)}); err != nil {
		t.Fatal(err)
	}
	if n, _ = q.Count(o); n != 4 {
		t.Fatalf("after reuse: Count = %d, want 4", n)
	}
}
