package value

import (
	"testing"
	"testing/quick"
)

func TestKindAccessors(t *testing.T) {
	iv := NewInt(42)
	if iv.Kind() != Int || iv.Int() != 42 {
		t.Fatalf("int accessor: got kind=%v val=%d", iv.Kind(), iv.Int())
	}
	sv := NewString("LA")
	if sv.Kind() != String || sv.Str() != "LA" {
		t.Fatalf("string accessor: got kind=%v val=%q", sv.Kind(), sv.Str())
	}
}

func TestAccessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int() on string Value should panic")
		}
	}()
	_ = NewString("x").Int()
}

func TestZeroValueIsEmptyString(t *testing.T) {
	var v Value
	if v.Kind() != String || v.Str() != "" {
		t.Fatalf("zero Value = %v, want empty string", v)
	}
}

func TestEquality(t *testing.T) {
	if NewInt(1) != NewInt(1) {
		t.Error("equal ints not ==")
	}
	if NewInt(1) == NewInt(2) {
		t.Error("distinct ints ==")
	}
	if NewString("a") != NewString("a") {
		t.Error("equal strings not ==")
	}
	if NewInt(0) == NewString("0") {
		t.Error("int 0 == string \"0\" across kinds")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(1), 1},
		{NewInt(5), NewInt(5), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("a"), 1},
		{NewString("x"), NewString("x"), 0},
		{NewInt(999), NewString(""), -1}, // ints before strings
		{NewString(""), NewInt(-999), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestQuotedParseRoundTrip(t *testing.T) {
	cases := []Value{
		NewInt(0), NewInt(-17), NewInt(1 << 40),
		NewString(""), NewString("Mickey"),
		NewString("it's"), NewString(`back\slash`),
		NewString("utf8 ✈ seat"),
	}
	for _, v := range cases {
		got, err := Parse(v.Quoted())
		if err != nil {
			t.Errorf("Parse(%s): %v", v.Quoted(), err)
			continue
		}
		if got != v {
			t.Errorf("round trip %s: got %v", v.Quoted(), got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "'unterminated", "12x", "'bad'quote'", `'trailing\`}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestQuickQuotedRoundTripString(t *testing.T) {
	f := func(s string) bool {
		v, err := Parse(NewString(s).Quoted())
		return err == nil && v == NewString(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(i int64, s string, pickInt bool) bool {
		var v Value
		if pickInt {
			v = NewInt(i)
		} else {
			v = NewString(s)
		}
		enc := v.AppendBinary(nil)
		got, n, err := DecodeBinary(enc)
		// QuoteBinary is DecodeBinary then Quoted, without the Value.
		text, qn, qerr := QuoteBinary([]byte("x"), enc)
		return err == nil && n == len(enc) && got == v &&
			qerr == nil && qn == n && string(text) == "x"+v.Quoted()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// quick draws valid UTF-8 only; escapes and broken encodings by hand.
	for _, s := range []string{"", "it's", `back\slash`, "\xff'\xc3", "Zoë\x80"} {
		if !f(0, s, false) {
			t.Errorf("QuoteBinary and Quoted disagree on %q", s)
		}
	}
}

func TestDecodeBinaryErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{byte(Int)},            // short int
		{byte(Int), 1, 2},      // short int
		{byte(String), 200, 1}, // length longer than payload
		{99},                   // unknown kind
	}
	for _, b := range bad {
		if _, _, err := DecodeBinary(b); err == nil {
			t.Errorf("DecodeBinary(%v) succeeded, want error", b)
		}
		if _, _, err := QuoteBinary(nil, b); err == nil {
			t.Errorf("QuoteBinary(%v) succeeded, want error", b)
		}
	}
}

func TestBinaryIsSelfDelimiting(t *testing.T) {
	var buf []byte
	vals := []Value{NewInt(7), NewString("abc"), NewInt(-1), NewString("")}
	for _, v := range vals {
		buf = v.AppendBinary(buf)
	}
	for _, want := range vals {
		v, n, err := DecodeBinary(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if v != want {
			t.Fatalf("decode = %v, want %v", v, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestTupleKey(t *testing.T) {
	a := Tuple{NewString("M"), NewInt(123), NewString("5A")}
	b := Tuple{NewString("M"), NewInt(123), NewString("5B")}
	if a.Key(nil) == b.Key(nil) {
		t.Error("distinct tuples share full key")
	}
	if a.Key([]int{0, 1}) != b.Key([]int{0, 1}) {
		t.Error("shared prefix projection keys differ")
	}
	if a.Key([]int{2}) == b.Key([]int{2}) {
		t.Error("distinct column projections share key")
	}
}

func TestTupleKeyNoCollisions(t *testing.T) {
	// Concatenation ambiguity check: ("ab","c") must not collide with ("a","bc").
	a := Tuple{NewString("ab"), NewString("c")}
	b := Tuple{NewString("a"), NewString("bc")}
	if a.Key(nil) == b.Key(nil) {
		t.Error("length-prefixed encoding collided")
	}
}

func TestTupleEqualCloneString(t *testing.T) {
	a := Tuple{NewInt(1), NewString("x")}
	if !a.Equal(a.Clone()) {
		t.Error("clone not equal")
	}
	c := a.Clone()
	c[0] = NewInt(2)
	if a.Equal(c) {
		t.Error("mutated clone still equal")
	}
	if a.Equal(Tuple{NewInt(1)}) {
		t.Error("different lengths equal")
	}
	if got, want := a.String(), "(1, 'x')"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if Tuple(nil).Clone() != nil {
		t.Error("nil clone not nil")
	}
}
