// Package value defines the scalar data values stored in relations and
// mentioned in resource transactions. A Value is either an int64 or a
// string; the zero Value is the empty string. Values are comparable with
// ==, ordered by Compare, and have a stable textual and binary encoding.
package value

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Kind discriminates the dynamic type of a Value.
type Kind uint8

const (
	// String is the kind of string-valued Values (the zero kind).
	String Kind = iota
	// Int is the kind of int64-valued Values.
	Int
)

// Value is an immutable scalar: an int64 or a string. Value is a valid map
// key and supports ==.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// NewInt returns an integer Value.
func NewInt(i int64) Value { return Value{kind: Int, i: i} }

// NewString returns a string Value.
func NewString(s string) Value { return Value{kind: String, s: s} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// Int returns the integer payload. It panics if v is not an Int.
func (v Value) Int() int64 {
	if v.kind != Int {
		panic("value: Int called on non-int Value " + v.String())
	}
	return v.i
}

// Str returns the string payload. It panics if v is not a String.
func (v Value) Str() string {
	if v.kind != String {
		panic("value: Str called on non-string Value " + v.String())
	}
	return v.s
}

// String renders v for humans: integers in decimal, strings as-is.
func (v Value) String() string {
	if v.kind == Int {
		return strconv.FormatInt(v.i, 10)
	}
	return v.s
}

// Quoted renders v unambiguously: integers in decimal, strings
// single-quoted with backslash escaping. Parseable by Parse.
func (v Value) Quoted() string {
	if v.kind == Int {
		return strconv.FormatInt(v.i, 10)
	}
	var buf [64]byte
	return string(v.AppendQuoted(buf[:0]))
}

// AppendQuoted appends the Quoted form of v to dst.
func (v Value) AppendQuoted(dst []byte) []byte {
	if v.kind == Int {
		return strconv.AppendInt(dst, v.i, 10)
	}
	dst = append(dst, '\'')
	for _, r := range v.s {
		dst = appendQuotedRune(dst, r)
	}
	return append(dst, '\'')
}

func appendQuotedRune(dst []byte, r rune) []byte {
	if r == '\'' || r == '\\' {
		dst = append(dst, '\\')
	}
	return utf8.AppendRune(dst, r)
}

// QuoteBinary decodes one AppendBinary-encoded value from the front of
// src and appends its Quoted form to dst — the text DecodeBinary followed
// by AppendQuoted would give, without materializing the Value. It returns
// the extended slice and the number of bytes of src consumed.
func QuoteBinary(dst, src []byte) ([]byte, int, error) {
	kind, i, str, n, err := splitBinary(src)
	if err != nil {
		return dst, 0, err
	}
	if kind == Int {
		return strconv.AppendInt(dst, i, 10), n, nil
	}
	dst = append(dst, '\'')
	for len(str) > 0 {
		r, w := utf8.DecodeRune(str)
		dst = appendQuotedRune(dst, r)
		str = str[w:]
	}
	return append(dst, '\''), n, nil
}

// Parse decodes the Quoted form: a decimal integer or a single-quoted
// string.
func Parse(s string) (Value, error) {
	if s == "" {
		return Value{}, fmt.Errorf("value: empty literal")
	}
	if s[0] == '\'' {
		if len(s) < 2 || s[len(s)-1] != '\'' {
			return Value{}, fmt.Errorf("value: unterminated string literal %q", s)
		}
		body := s[1 : len(s)-1]
		var b strings.Builder
		esc := false
		for _, r := range body {
			if esc {
				b.WriteRune(r)
				esc = false
				continue
			}
			if r == '\\' {
				esc = true
				continue
			}
			if r == '\'' {
				return Value{}, fmt.Errorf("value: unescaped quote in %q", s)
			}
			b.WriteRune(r)
		}
		if esc {
			return Value{}, fmt.Errorf("value: trailing backslash in %q", s)
		}
		return NewString(b.String()), nil
	}
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Value{}, fmt.Errorf("value: bad literal %q: %v", s, err)
	}
	return NewInt(i), nil
}

// Compare orders Values: all Ints sort before all Strings; within a kind the
// natural order applies. It returns -1, 0 or +1.
func Compare(a, b Value) int {
	if a.kind != b.kind {
		if a.kind == Int {
			return -1
		}
		return 1
	}
	if a.kind == Int {
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	}
	return strings.Compare(a.s, b.s)
}

// AppendBinary appends a self-delimiting binary encoding of v to dst and
// returns the extended slice. The encoding is: one kind byte, then for Int a
// fixed 8-byte big-endian payload, for String a uvarint length and the
// bytes.
func (v Value) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	if v.kind == Int {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.i))
		return append(dst, buf[:]...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(v.s)))
	return append(dst, v.s...)
}

// DecodeBinary decodes one Value from the front of src, returning the Value
// and the number of bytes consumed.
func DecodeBinary(src []byte) (Value, int, error) {
	kind, i, str, n, err := splitBinary(src)
	if err != nil {
		return Value{}, 0, err
	}
	if kind == Int {
		return NewInt(i), n, nil
	}
	return NewString(string(str)), n, nil
}

// splitBinary parses one encoded value without copying: the kind, the
// integer payload or the string payload (aliasing src), and the encoded
// length.
func splitBinary(src []byte) (kind Kind, i int64, str []byte, n int, err error) {
	if len(src) == 0 {
		return 0, 0, nil, 0, fmt.Errorf("value: short buffer")
	}
	switch Kind(src[0]) {
	case Int:
		if len(src) < 9 {
			return 0, 0, nil, 0, fmt.Errorf("value: short int encoding")
		}
		return Int, int64(binary.BigEndian.Uint64(src[1:9])), nil, 9, nil
	case String:
		l, w := binary.Uvarint(src[1:])
		if w <= 0 {
			return 0, 0, nil, 0, fmt.Errorf("value: bad string length")
		}
		start := 1 + w
		end := start + int(l)
		if end > len(src) || end < start {
			return 0, 0, nil, 0, fmt.Errorf("value: short string encoding")
		}
		return String, 0, src[start:end], end, nil
	default:
		return 0, 0, nil, 0, fmt.Errorf("value: unknown kind byte %d", src[0])
	}
}

// Tuple is an ordered list of Values: one row of a relation.
type Tuple []Value

// Key returns a canonical string usable as a map key for the projection of
// t onto the given column indexes. cols == nil keys the whole tuple.
func (t Tuple) Key(cols []int) string {
	return string(t.AppendKey(nil, cols))
}

// AppendKey appends the canonical key bytes of the projection of t onto
// cols to buf and returns the extended slice. cols == nil keys the whole
// tuple. Hot read paths look keys up as m[string(t.AppendKey(buf[:0],
// cols))], which the compiler evaluates without allocating the string.
func (t Tuple) AppendKey(buf []byte, cols []int) []byte {
	if cols == nil {
		for _, v := range t {
			buf = v.AppendBinary(buf)
		}
		return buf
	}
	for _, c := range cols {
		buf = t[c].AppendBinary(buf)
	}
	return buf
}

// Equal reports whether two tuples have identical length and values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of t with fresh backing storage.
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.Quoted())
	}
	b.WriteByte(')')
	return b.String()
}
