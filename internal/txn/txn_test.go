package txn

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/logic"
)

const mickey = "-A(f1, s1), +B('Mickey', f1, s1) :-1 A(f1, s1), ?B('Goofy', f1, s2), ?Adj(s1, s2)"

func TestParsePaperExample(t *testing.T) {
	tx, err := Parse(mickey)
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.Update) != 2 {
		t.Fatalf("update ops = %d, want 2", len(tx.Update))
	}
	if tx.Update[0].Insert || !tx.Update[1].Insert {
		t.Error("update op polarity wrong")
	}
	if len(tx.Body) != 3 {
		t.Fatalf("body atoms = %d, want 3", len(tx.Body))
	}
	if tx.Body[0].Optional || !tx.Body[1].Optional || !tx.Body[2].Optional {
		t.Error("optional flags wrong")
	}
	wantHard := logic.NewAtom("A", logic.Var("f1"), logic.Var("s1"))
	if !tx.Body[0].Atom.Equal(wantHard) {
		t.Errorf("hard atom = %v, want %v", tx.Body[0].Atom, wantHard)
	}
	if got := tx.Update[1].Atom.Args[0]; got != logic.Str("Mickey") {
		t.Errorf("insert constant = %v", got)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	cases := []string{
		mickey,
		"-A(2, s3), +B('Goofy', 2, s3) :-1 A(2, s3)",
		"+R(x) :-1 S(x)",
		"-R(x), +Q(x, 'it\\'s') :-1 R(x), ?P(x)",
		"+R(n) :-1 S(n, -42)",
	}
	for _, src := range cases {
		tx, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		again, err := Parse(tx.String())
		if err != nil {
			t.Errorf("re-Parse(%q): %v", tx.String(), err)
			continue
		}
		if again.String() != tx.String() {
			t.Errorf("round trip changed: %q -> %q", tx.String(), again.String())
		}
	}
}

func TestParseWithOPTKeywordAndTrailingDot(t *testing.T) {
	tx, err := Parse("+B('M', f, s) :-1 A(f, s), OPT Adj(s, s2), OPT B('G', f, s2).")
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.OptionalAtoms()) != 2 {
		t.Fatalf("OPT keyword not honored: %v", tx)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"A(x) :-1 A(x)",            // missing +/- on update
		"+A(x)",                    // missing :-1 and body
		"+A(x) :-1",                // empty body
		"+A(x) : -1 A(x)",          // broken :-1 token
		"+A(x) :-1 A(x) trailing",  // trailing junk
		"+A() :-1 B(x)",            // empty atom
		"+A(x :-1 B(x)",            // unterminated args
		"+A('oops) :-1 B(x)",       // unterminated string
		"+A(x) :-1 B(y)",           // range restriction: x unbound
		"+A(x) :-1 ?B(x)",          // x only optionally bound
		"+A(x), :-1 B(x)",          // dangling comma
		"+A(x) :-1 B(x), ,",        // dangling comma in body
		"+A(x) :-1 B(x), C(x,, y)", // double comma in args
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseOps(t *testing.T) {
	ops, err := ParseOps("+Notes('a, (b)'), -A(1, x).")
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || !ops[0].Insert || ops[1].Insert || ops[0].Atom.Args[0].Value().Str() != "a, (b)" {
		t.Fatalf("ParseOps = %v", ops)
	}
	for _, src := range []string{"", "A(1)", "+A(1), ,", "+A(1) :-1 A(1)", "+A(1) -B(2)"} {
		if _, err := ParseOps(src); err == nil {
			t.Errorf("ParseOps(%q) succeeded, want error", src)
		}
	}
}

func TestValidateRangeRestriction(t *testing.T) {
	// Update var bound only by an optional atom: invalid.
	tx := &T{
		Update: []Op{{Insert: true, Atom: logic.NewAtom("B", logic.Var("s2"))}},
		Body: []BodyAtom{
			{Atom: logic.NewAtom("A", logic.Var("s1"))},
			{Atom: logic.NewAtom("Adj", logic.Var("s1"), logic.Var("s2")), Optional: true},
		},
	}
	if err := tx.Validate(); err == nil {
		t.Fatal("optional-only binding accepted")
	}
	// Constants only: fine.
	tx = &T{
		Update: []Op{{Insert: true, Atom: logic.NewAtom("B", logic.Str("M"))}},
		Body:   []BodyAtom{{Atom: logic.NewAtom("A", logic.Var("x"))}},
	}
	if err := tx.Validate(); err != nil {
		t.Fatalf("constant update rejected: %v", err)
	}
	if err := (&T{Body: tx.Body}).Validate(); err == nil {
		t.Fatal("empty update accepted")
	}
}

func TestHardOptionalSplit(t *testing.T) {
	tx := MustParse(mickey)
	if got := len(tx.HardAtoms()); got != 1 {
		t.Errorf("hard atoms = %d, want 1", got)
	}
	if got := len(tx.OptionalAtoms()); got != 2 {
		t.Errorf("optional atoms = %d, want 2", got)
	}
	if got := len(tx.Inserts()); got != 1 {
		t.Errorf("inserts = %d, want 1", got)
	}
	if got := len(tx.Deletes()); got != 1 {
		t.Errorf("deletes = %d, want 1", got)
	}
}

func TestVarsOrder(t *testing.T) {
	tx := MustParse(mickey)
	vars := tx.Vars()
	want := []string{"f1", "s1", "s2"}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v, want %v", vars, want)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vars, want)
		}
	}
}

func TestRenamedApart(t *testing.T) {
	tx := MustParse(mickey)
	tx.ID = 42
	r := tx.RenamedApart()
	for _, v := range r.Vars() {
		if !strings.HasSuffix(v, "#42") {
			t.Errorf("variable %q not renamed", v)
		}
	}
	// Original untouched.
	for _, v := range tx.Vars() {
		if strings.Contains(v, "#") {
			t.Errorf("original variable %q mutated", v)
		}
	}
	// Renamed txn still parses (round trip through text).
	if _, err := Parse(r.String()); err != nil {
		t.Errorf("renamed txn does not re-parse: %v", err)
	}
	// Constants unchanged.
	if r.Update[1].Atom.Args[0] != logic.Str("Mickey") {
		t.Error("constant was renamed")
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	tx := MustParse(mickey)
	tx.ID = 7
	tx.Tag = "Mickey"
	tx.PartnerTag = "Goofy"
	data, err := tx.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || got.Tag != "Mickey" || got.PartnerTag != "Goofy" {
		t.Errorf("metadata lost: %+v", got)
	}
	if got.String() != tx.String() {
		t.Errorf("body changed: %q vs %q", got.String(), tx.String())
	}
}

// TestMarshalMemoizedConcurrent: concurrent Marshals of one transaction
// (a checkpoint and a replica image at once) all return the same bytes.
func TestMarshalMemoizedConcurrent(t *testing.T) {
	tx, ref := MustParse(mickey), MustParse(mickey)
	tx.ID, ref.ID = 7, 7
	want, err := ref.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := tx.Marshal()
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("Marshal = %s, %v; want %s", got, err, want)
			}
		}()
	}
	wg.Wait()
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("{bad json")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := Unmarshal([]byte(`{"id":1,"text":"not a txn"}`)); err == nil {
		t.Error("bad body text accepted")
	}
}

func TestParseQuery(t *testing.T) {
	atoms, err := ParseQuery("B('Mickey', f, s), F(f, 'LA')")
	if err != nil {
		t.Fatal(err)
	}
	if len(atoms) != 2 || atoms[0].Rel != "B" || atoms[1].Rel != "F" {
		t.Fatalf("ParseQuery = %v", atoms)
	}
	if _, err := ParseQuery(""); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := ParseQuery("B(x) B(y)"); err == nil {
		t.Error("missing comma accepted")
	}
}

// TestConcurrentViewMemoization hammers the lazily-memoized views from
// many goroutines (run under -race): all callers must agree on a single
// published pointer per view, on the content key and on the shape.
func TestConcurrentViewMemoization(t *testing.T) {
	tx := MustParse("-A(f, s), +B('m', f, s) :-1 A(f, s), ?C(s)")
	const goros = 16
	stripped := make([]*T, goros)
	hardened := make([]*T, goros)
	keys := make([]uint64, goros)
	shapes := make([]string, goros)
	var wg sync.WaitGroup
	for g := 0; g < goros; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stripped[g] = tx.Stripped()
			hardened[g] = tx.Hardened()
			keys[g] = tx.ContentKey()
			shapes[g] = tx.Shape()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goros; g++ {
		if stripped[g] != stripped[0] {
			t.Fatalf("goroutine %d saw a different Stripped pointer", g)
		}
		if hardened[g] != hardened[0] {
			t.Fatalf("goroutine %d saw a different Hardened pointer", g)
		}
		if keys[g] != keys[0] {
			t.Fatalf("goroutine %d saw a different ContentKey", g)
		}
		if shapes[g] != shapes[0] {
			t.Fatalf("goroutine %d saw a different Shape", g)
		}
	}
	if len(stripped[0].Body) != 1 || len(hardened[0].Body) != 2 {
		t.Fatalf("view shapes wrong: stripped %d atoms, hardened %d", len(stripped[0].Body), len(hardened[0].Body))
	}
}

// TestShape: a shape abstracts constants and variable names and keeps
// everything a compiled body depends on.
func TestShape(t *testing.T) {
	const booking = "-Available(f, s), +Bookings('u', f, s) :-1 Available(f, s), ?Bookings('p', f, m), ?Adjacent(f, s, m)"
	for _, c := range []struct {
		name, a, b string
		equal      bool
	}{
		{"same text", booking, booking, true},
		{"renamed variables", booking,
			"-Available(x, y), +Bookings('u', x, y) :-1 Available(x, y), ?Bookings('p', x, z), ?Adjacent(x, y, z)", true},
		{"changed constants", booking,
			"-Available(f, s), +Bookings(7, f, s) :-1 Available(f, s), ?Bookings('q', f, m), ?Adjacent(f, s, m)", true},
		{"repeated vs distinct variables", "+B(x) :-1 A(x, x)", "+B(x) :-1 A(x, y)", false},
		{"constant position", "+B(x) :-1 A(1, x)", "+B(x) :-1 A(x, 1)", false},
		{"arity", "+B(x) :-1 A(x, y)", "+B(x) :-1 A(x, y, z)", false},
		{"relation", "+B(x) :-1 A(x)", "+B(x) :-1 C(x)", false},
		{"optional vs hard", "+B(x) :-1 A(x), C(x)", "+B(x) :-1 A(x), ?C(x)", false},
		{"insert vs delete", "+B(x) :-1 A(x)", "-B(x) :-1 A(x)", false},
		{"update variable order", "+B(x, y) :-1 A(x, y)", "+B(y, x) :-1 A(x, y)", false},
	} {
		if got := MustParse(c.a).Shape() == MustParse(c.b).Shape(); got != c.equal {
			t.Errorf("%s: %q vs %q: equal shapes = %v, want %v", c.name, c.a, c.b, got, c.equal)
		}
	}
}
