package formula

import (
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/value"
)

func tup(vs ...any) value.Tuple {
	t := make(value.Tuple, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case int:
			t[i] = value.NewInt(int64(x))
		case string:
			t[i] = value.NewString(x)
		default:
			panic("tup: unsupported type")
		}
	}
	return t
}

// figure3DB builds a store matching the running example of Figure 3:
// Mickey holds a booking on flight 1; flight 2 has one available seat.
func figure3DB() *relstore.DB {
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "B", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
	db.MustCreateTable(relstore.Schema{Name: "A", Columns: []string{"fno", "sno"}})
	db.MustInsert("B", tup("M", 1, "5A"))
	db.MustInsert("A", tup(2, "7C"))
	return db
}

// onlyFact renders the single fact of a grounding's inserts or deletes.
func onlyFact(t *testing.T, fs []relstore.GroundFact) string {
	t.Helper()
	if len(fs) != 1 {
		t.Fatalf("grounding has %d facts %v, want 1", len(fs), fs)
	}
	return fs[0].String()
}

func figure3Txns(t *testing.T) []*txn.T {
	t.Helper()
	t1 := txn.MustParse("-B('M', 1, s1), +A(1, s1) :-1 B('M', 1, s1)")
	t2 := txn.MustParse("-A(f2, s2), +B('D', f2, s2) :-1 A(f2, s2)")
	t3 := txn.MustParse("-A(2, s3), +B('G', 2, s3) :-1 A(2, s3)")
	t1.ID, t2.ID, t3.ID = 1, 2, 3
	return []*txn.T{t1, t2, t3}
}

func TestFigure3Composition(t *testing.T) {
	ts := figure3Txns(t)
	f := Compose(ts)
	and, ok := f.(And)
	if !ok {
		t.Fatalf("composed formula is %T, want And", f)
	}
	if len(and.Fs) != 3 {
		t.Fatalf("composed conjuncts = %d, want 3", len(and.Fs))
	}
	// Conjunct 1: plain atom B('M', 1, s1).
	if _, ok := and.Fs[0].(AtomF); !ok {
		t.Errorf("conjunct 1 is %T, want AtomF", and.Fs[0])
	}
	// Conjunct 2: {A(f2, s2) ∨ {(f2 = 1) ∧ (s2 = s1)}} — T2's atom may
	// ground on the seat T1 frees.
	or, ok := and.Fs[1].(Or)
	if !ok || len(or.Fs) != 2 {
		t.Fatalf("conjunct 2 = %s, want a 2-way Or", String(and.Fs[1]))
	}
	if _, ok := or.Fs[0].(AtomF); !ok {
		t.Errorf("Or core is %T, want AtomF", or.Fs[0])
	}
	pred, ok := or.Fs[1].(PredF)
	if !ok || len(pred.Pred.Eqs) != 2 {
		t.Fatalf("Or alternative = %s, want 2-equality ϕ", String(or.Fs[1]))
	}
	// Conjunct 3: A(2, s3) ∧ ¬{(f2 = 2) ∧ (s2 = s3)} — T3's atom must not
	// ground on the tuple T2 deletes. The insert +A(1, s1) has a trivially
	// false unifier with A(2, s3) (1 ≠ 2) and must be omitted.
	and3, ok := and.Fs[2].(And)
	if !ok || len(and3.Fs) != 2 {
		t.Fatalf("conjunct 3 = %s, want atom ∧ ¬ϕ", String(and.Fs[2]))
	}
	if _, ok := and3.Fs[0].(AtomF); !ok {
		t.Errorf("conjunct 3 core is %T, want AtomF", and3.Fs[0])
	}
	if np, ok := and3.Fs[1].(NotPredF); !ok || len(np.Pred.Eqs) != 2 {
		t.Fatalf("conjunct 3 guard = %s, want ¬ϕ with 2 equalities", String(and3.Fs[1]))
	}
	if got := AtomCount(f); got != 3 {
		t.Errorf("AtomCount = %d, want 3", got)
	}
	if !strings.Contains(String(f), "∨") {
		t.Errorf("rendering lost the disjunction: %s", String(f))
	}
}

// TestFigure3SatisfiabilityRequiresBacktracking is the crux of the Figure 3
// example: flight 2 has a single available seat, so the chain is only
// satisfiable if T2 (Donald, unconstrained) takes the seat T1 (Mickey's
// cancellation) frees on flight 1, leaving flight 2's seat for T3 (Goofy).
func TestFigure3SatisfiabilityRequiresBacktracking(t *testing.T) {
	ts := figure3Txns(t)
	db := figure3DB()

	sol, ok, err := SolveChain(db, ts, ChainOptions{})
	if err != nil || !ok {
		t.Fatalf("SolveChain: ok=%v err=%v", ok, err)
	}
	// Donald must be on flight 1, in the seat Mickey's cancellation frees.
	if got, want := onlyFact(t, sol.Groundings[1].Inserts), "B('D', 1, '5A')"; got != want {
		t.Errorf("Donald's booking = %s, want %s (forced by Goofy)", got, want)
	}
	if got, want := onlyFact(t, sol.Groundings[2].Deletes), "A(2, '7C')"; got != want {
		t.Errorf("Goofy takes %s, want %s", got, want)
	}

	// The composed formula agrees.
	f := Compose(ts)
	s, ok, err := FindOne(f, db, nil)
	if err != nil || !ok {
		t.Fatalf("formula FindOne: ok=%v err=%v", ok, err)
	}
	if got := s.Walk(logic.Var("f2")); got != logic.Int(1) {
		t.Errorf("formula solution f2 = %v, want 1", got)
	}
}

func TestChainUnsatisfiable(t *testing.T) {
	// Two transactions both demanding the single seat on flight 2.
	db := figure3DB()
	a := txn.MustParse("-A(2, s1), +B('X', 2, s1) :-1 A(2, s1)")
	b := txn.MustParse("-A(2, s2), +B('Y', 2, s2) :-1 A(2, s2)")
	a.ID, b.ID = 1, 2
	_, ok, err := SolveChain(db, []*txn.T{a, b}, ChainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("two bookings of one seat reported satisfiable")
	}
	// Formula agrees.
	f := Compose([]*txn.T{a, b})
	if _, ok, err := FindOne(f, db, nil); err != nil || ok {
		t.Fatalf("formula: ok=%v err=%v, want unsat", ok, err)
	}
}

func TestLemma34InsertCase(t *testing.T) {
	// T1 inserts R(1); T2's body can ground on the inserted tuple even if
	// the store is empty — via the ϕ branch.
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "R", Columns: []string{"a"}})
	db.MustCreateTable(relstore.Schema{Name: "S", Columns: []string{"a"}})
	db.MustCreateTable(relstore.Schema{Name: "Q", Columns: []string{"a"}})
	db.MustInsert("S", tup(5))

	t1 := txn.MustParse("+R(x) :-1 S(x)")
	t2 := txn.MustParse("+Q(y) :-1 R(y)")
	t1.ID, t2.ID = 1, 2
	ts := []*txn.T{t1.RenamedApart(), t2.RenamedApart()}

	sol, ok, err := SolveChain(db, ts, ChainOptions{})
	if err != nil || !ok {
		t.Fatalf("SolveChain: ok=%v err=%v", ok, err)
	}
	if got, want := onlyFact(t, sol.Groundings[1].Inserts), "Q(5)"; got != want {
		t.Errorf("T2 inserts %s, want %s (y from T1's insert)", got, want)
	}
	f := Compose(ts)
	s, ok, err := FindOne(f, db, nil)
	if err != nil || !ok {
		t.Fatalf("formula: ok=%v err=%v", ok, err)
	}
	if got := s.Walk(logic.Var("y#2")); got != logic.Int(5) {
		t.Errorf("formula y = %v, want 5", got)
	}
}

func TestLemma34DeleteCase(t *testing.T) {
	// T1 deletes the only R tuple; T2 requires an R tuple: unsatisfiable.
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "R", Columns: []string{"a"}})
	db.MustCreateTable(relstore.Schema{Name: "Q", Columns: []string{"a"}})
	db.MustInsert("R", tup(1))

	t1 := txn.MustParse("-R(x) :-1 R(x)")
	t2 := txn.MustParse("+Q(y) :-1 R(y)")
	t1.ID, t2.ID = 1, 2
	ts := []*txn.T{t1.RenamedApart(), t2.RenamedApart()}

	if _, ok, err := SolveChain(db, ts, ChainOptions{}); err != nil || ok {
		t.Fatalf("chain: ok=%v err=%v, want unsat", ok, err)
	}
	if _, ok, err := FindOne(Compose(ts), db, nil); err != nil || ok {
		t.Fatalf("formula: ok=%v err=%v, want unsat", ok, err)
	}
	// With a second R tuple both become satisfiable and T2 must avoid the
	// deleted one.
	db.MustInsert("R", tup(2))
	sol, ok, err := SolveChain(db, ts, ChainOptions{})
	if err != nil || !ok {
		t.Fatalf("chain after second tuple: ok=%v err=%v", ok, err)
	}
	x := onlyFact(t, sol.Groundings[0].Deletes)
	y := onlyFact(t, sol.Groundings[1].Inserts)
	if x[1:] == y[1:] {
		t.Errorf("T2 grounded on the tuple T1 deleted: %s then %s", x, y)
	}
	s, ok, err := FindOne(Compose(ts), db, nil)
	if err != nil || !ok {
		t.Fatalf("formula after second tuple: ok=%v err=%v", ok, err)
	}
	if s.Walk(logic.Var("x#1")) == s.Walk(logic.Var("y#2")) {
		t.Errorf("formula allowed grounding on deleted tuple")
	}
}

// TestChainFormulaAgreement cross-checks the two satisfiability
// procedures over a grid of small scenarios.
func TestChainFormulaAgreement(t *testing.T) {
	seatSets := [][]string{{}, {"1A"}, {"1A", "1B"}, {"1A", "1B", "1C"}}
	for _, seats := range seatSets {
		for nTxns := 1; nTxns <= 4; nTxns++ {
			db := relstore.NewDB()
			db.MustCreateTable(relstore.Schema{Name: "A", Columns: []string{"fno", "sno"}})
			db.MustCreateTable(relstore.Schema{Name: "B", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
			for _, s := range seats {
				db.MustInsert("A", tup(1, s))
			}
			var ts []*txn.T
			for i := 0; i < nTxns; i++ {
				tx := txn.MustParse("-A(1, s), +B('u', 1, s) :-1 A(1, s)")
				tx.ID = int64(i + 1)
				tx.Tag = "u"
				ts = append(ts, tx.RenamedApart())
			}
			_, chainOK, err := SolveChain(db, ts, ChainOptions{})
			if err != nil {
				t.Fatal(err)
			}
			_, formOK, err := FindOne(Compose(ts), db, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantOK := nTxns <= len(seats)
			if chainOK != wantOK || formOK != wantOK {
				t.Errorf("seats=%d txns=%d: chain=%v formula=%v want=%v",
					len(seats), nTxns, chainOK, formOK, wantOK)
			}
		}
	}
}

// TestPossibleWorldEvolution reproduces Figure 2: the count of satisfying
// groundings (possible worlds) as Mickey, Donald and Minnie submit their
// transactions over a 3-seat flight.
func TestPossibleWorldEvolution(t *testing.T) {
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "A", Columns: []string{"fno", "sno"}})
	db.MustCreateTable(relstore.Schema{Name: "B", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
	db.MustCreateTable(relstore.Schema{Name: "Adj", Columns: []string{"s1", "s2"}})
	for _, s := range []string{"1A", "1B", "1C"} {
		db.MustInsert("A", tup(123, s))
	}
	// Row adjacency: 1A-1B, 1B-1C (both directions).
	for _, p := range [][2]string{{"1A", "1B"}, {"1B", "1A"}, {"1B", "1C"}, {"1C", "1B"}} {
		db.MustInsert("Adj", tup(p[0], p[1]))
	}

	mickey := txn.MustParse("-A(123, s), +B('Mickey', 123, s) :-1 A(123, s)")
	mickey.ID = 1
	donald := txn.MustParse("-A(123, s), +B('Donald', 123, s) :-1 A(123, s)")
	donald.ID = 2
	// Minnie requires a seat adjacent to Mickey's: a hard entangled
	// constraint against Mickey's pending insert. In the composed formula
	// her Adj atom grounds on the store and her B-atom unifies with
	// Mickey's pending +B insert.
	minnie := txn.MustParse("-A(123, s), +B('Minnie', 123, s) :-1 A(123, s), B('Mickey', 123, m), Adj(m, s)")
	minnie.ID = 3

	worlds := func(ts []*txn.T) int {
		var rs []*txn.T
		for _, x := range ts {
			rs = append(rs, x.RenamedApart())
		}
		n, err := Count(Compose(rs), db)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Mickey alone: 3 possible seats.
	if got := worlds([]*txn.T{mickey}); got != 3 {
		t.Errorf("worlds after Mickey = %d, want 3", got)
	}
	// Mickey and Donald: 3 × 2 orderings of distinct seats.
	if got := worlds([]*txn.T{mickey, donald}); got != 6 {
		t.Errorf("worlds after Donald = %d, want 6", got)
	}
	// Minnie next to Mickey: Figure 2's final panel. Valid worlds:
	// (M,D,Mi) ∈ {(1A,1C,1B), (1C,1A,1B), (1B,1C,1A)…} — enumerate: Minnie
	// adj Mickey with all three seated: M=1A:D=1C,Mi=1B; M=1B:D∈{}? M=1B,
	// Mi∈{1A,1C}, D gets the third: 2 worlds; M=1C symmetric to M=1A: 1
	// world. Total 4.
	if got := worlds([]*txn.T{mickey, donald, minnie}); got != 4 {
		t.Errorf("worlds after Minnie = %d, want 4", got)
	}
}

func TestComposeEmptyAndAtomHelpers(t *testing.T) {
	if _, ok := Compose(nil).(TrueF); !ok {
		t.Error("Compose(nil) is not TrueF")
	}
	db := relstore.NewDB()
	if n, err := Count(TrueF{}, db); err != nil || n != 1 {
		t.Errorf("Count(true) = %d, %v", n, err)
	}
	if n, err := Count(FalseF{}, db); err != nil || n != 0 {
		t.Errorf("Count(false) = %d, %v", n, err)
	}
}

func TestNotPredUndecidableIsError(t *testing.T) {
	db := relstore.NewDB()
	p := logic.UnifPred{Eqs: []logic.EqConstraint{{Left: logic.Var("never"), Right: logic.Int(1)}}, Trivial: true}
	err := Eval(NotPredF{Pred: p}, db, nil, func(logic.Subst) bool { return true })
	if err == nil {
		t.Fatal("undecidable ¬ϕ did not error")
	}
}

func TestSolverMaximizeOptionals(t *testing.T) {
	// Goofy is booked in 1B; Mickey optionally wants an adjacent seat.
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "A", Columns: []string{"fno", "sno"}})
	db.MustCreateTable(relstore.Schema{Name: "B", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
	db.MustCreateTable(relstore.Schema{Name: "Adj", Columns: []string{"s1", "s2"}})
	db.MustInsert("B", tup("Goofy", 123, "1B"))
	db.MustInsert("A", tup(123, "1A"))
	db.MustInsert("A", tup(123, "9F"))
	db.MustInsert("Adj", tup("1A", "1B"))
	db.MustInsert("Adj", tup("1B", "1A"))

	mk := txn.MustParse("-A(123, s), +B('Mickey', 123, s) :-1 A(123, s), ?B('Goofy', 123, g), ?Adj(s, g)")
	mk.ID = 1

	sol, ok, err := SolveChain(db, []*txn.T{mk}, ChainOptions{MaximizeOptionals: true})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got, want := onlyFact(t, sol.Groundings[0].Inserts), "B('Mickey', 123, '1A')"; got != want {
		t.Errorf("Mickey's booking = %s, want %s (next to Goofy)", got, want)
	}
	if sol.Groundings[0].OptionalSatisfied != 2 {
		t.Errorf("OptionalSatisfied = %d, want 2", sol.Groundings[0].OptionalSatisfied)
	}

	// Remove the adjacent seat: optionals unsatisfiable, hard part still
	// succeeds with 9F.
	if err := db.Delete("A", tup(123, "1A")); err != nil {
		t.Fatal(err)
	}
	sol, ok, err = SolveChain(db, []*txn.T{mk}, ChainOptions{MaximizeOptionals: true})
	if err != nil || !ok {
		t.Fatalf("relaxed: ok=%v err=%v", ok, err)
	}
	if got, want := onlyFact(t, sol.Groundings[0].Inserts), "B('Mickey', 123, '9F')"; got != want {
		t.Errorf("Mickey's fallback booking = %s, want %s", got, want)
	}
	// One optional (B('Goofy',…)) still satisfiable; Adj(s,g) not.
	if sol.Groundings[0].OptionalSatisfied != 1 {
		t.Errorf("OptionalSatisfied = %d, want 1", sol.Groundings[0].OptionalSatisfied)
	}
}

func TestSolverStepBudget(t *testing.T) {
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "A", Columns: []string{"fno", "sno"}})
	db.MustCreateTable(relstore.Schema{Name: "B", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
	for i := 0; i < 50; i++ {
		db.MustInsert("A", tup(1, string(rune('a'+i%26))+string(rune('0'+i/26))))
	}
	var ts []*txn.T
	for i := 1; i <= 5; i++ {
		tx := txn.MustParse("-A(1, s), +B('u', 1, s) :-1 A(1, s)")
		tx.ID = int64(i)
		ts = append(ts, tx.RenamedApart())
	}
	_, _, err := SolveChain(db, ts, ChainOptions{MaxSteps: 2})
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestChainSolutionFacts(t *testing.T) {
	ts := figure3Txns(t)
	db := figure3DB()
	sol, ok, err := SolveChain(db, ts, ChainOptions{})
	if err != nil || !ok {
		t.Fatal(err)
	}
	ins, dels := sol.Facts()
	if len(ins) != 3 || len(dels) != 3 {
		t.Fatalf("facts: %d inserts %d deletes, want 3/3", len(ins), len(dels))
	}
	// Applying the solution grounding by grounding in chain order must
	// succeed and leave no Available seats (both seats consumed, one freed
	// and re-consumed). The flattened facts cannot be applied as one unit:
	// T2 deletes the seat T1 inserts.
	for _, g := range sol.Groundings {
		if err := db.Apply(g.Inserts, g.Deletes); err != nil {
			t.Fatalf("applying grounding of txn %d: %v", g.Txn.ID, err)
		}
	}
	if n := db.Len("A"); n != 0 {
		t.Errorf("Available rows after execution = %d, want 0", n)
	}
	if n := db.Len("B"); n != 2 {
		t.Errorf("Bookings after execution = %d, want 2 (Donald, Goofy)", n)
	}
}

func TestCountOptionalsSatisfied(t *testing.T) {
	db := figure3DB()
	tx := txn.MustParse("-A(2, s), +B('Z', 2, s) :-1 A(2, s), ?B('M', 1, m), ?B('Q', 9, q)")
	s := logic.NewSubst()
	s["s"] = logic.Str("7C")
	if got := CountOptionalsSatisfied(db, tx, s); got != 1 {
		t.Errorf("CountOptionalsSatisfied = %d, want 1", got)
	}
}
