package txn

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/logic"
	"repro/internal/value"
)

// Parse reads a resource transaction in the Datalog-like notation of the
// paper:
//
//	-A(f1, s1), +B('Mickey', f1, s1) :-1 A(f1, s1), ?B('Goofy', f1, s2), ?Adj(s1, s2)
//
// Update ops precede ":-1"; each is +R(...) (insert) or -R(...) (delete).
// Body atoms follow; a leading '?' (or the keyword OPT before the atom)
// marks an OPTIONAL atom. Arguments are variables (bare identifiers),
// integers, or single-quoted strings. A trailing '.' is permitted.
func Parse(src string) (*T, error) {
	p := &parser{src: src}
	t, err := p.parseTxn()
	if err != nil {
		return nil, fmt.Errorf("txn: parse %q: %w", src, err)
	}
	return t, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string) *T {
	t, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return t
}

// ParseQuery reads a comma-separated list of atoms (no update portion),
// used for read queries: "B('Mickey', f, s), F(f, 'LA')".
func ParseQuery(src string) ([]logic.Atom, error) {
	p := &parser{src: src}
	var atoms []logic.Atom
	for {
		p.skipSpace()
		if p.eof() {
			if len(atoms) == 0 {
				return nil, fmt.Errorf("txn: empty query")
			}
			return atoms, nil
		}
		a, err := p.parseAtom()
		if err != nil {
			return nil, fmt.Errorf("txn: parse query %q: %w", src, err)
		}
		atoms = append(atoms, a)
		p.skipSpace()
		if p.eat('.') {
			p.skipSpace()
		}
		if p.eof() {
			return atoms, nil
		}
		if !p.eat(',') {
			return nil, fmt.Errorf("txn: parse query %q: expected ',' at offset %d", src, p.pos)
		}
	}
}

// ParseOps reads a comma-separated list of update ops, each +R(...)
// (insert) or -R(...) (delete): a transaction's update portion on its
// own, as a blind write states it. A trailing '.' is permitted.
func ParseOps(src string) ([]Op, error) {
	p := &parser{src: src}
	ops, err := p.parseOps()
	if err == nil {
		err = p.end()
	}
	if err != nil {
		return nil, fmt.Errorf("txn: parse ops %q: %w", src, err)
	}
	return ops, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) eat(c byte) bool {
	if !p.eof() && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *parser) skipSpace() {
	for !p.eof() && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *parser) parseTxn() (*T, error) {
	update, err := p.parseOps()
	if err != nil {
		return nil, err
	}
	t := &T{Update: update}
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.pos:], ":-1") {
		return nil, fmt.Errorf("expected ':-1' at offset %d", p.pos)
	}
	p.pos += len(":-1")
	// Body.
	for {
		p.skipSpace()
		optional := false
		if p.eat('?') {
			optional = true
		} else if strings.HasPrefix(p.src[p.pos:], "OPT ") {
			optional = true
			p.pos += len("OPT ")
			p.skipSpace()
		}
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		t.Body = append(t.Body, BodyAtom{Atom: a, Optional: optional})
		p.skipSpace()
		if p.eat(',') {
			continue
		}
		break
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// end accepts an optional trailing '.' and then the end of input.
func (p *parser) end() error {
	p.skipSpace()
	p.eat('.')
	p.skipSpace()
	if !p.eof() {
		return fmt.Errorf("trailing input at offset %d", p.pos)
	}
	return nil
}

// parseOps reads the comma-separated update ops at the cursor.
func (p *parser) parseOps() ([]Op, error) {
	var ops []Op
	for {
		p.skipSpace()
		var insert bool
		switch {
		case p.eat('+'):
			insert = true
		case p.eat('-'):
			insert = false
		default:
			return nil, fmt.Errorf("expected '+' or '-' starting an update op at offset %d", p.pos)
		}
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		ops = append(ops, Op{Insert: insert, Atom: a})
		p.skipSpace()
		if !p.eat(',') {
			return ops, nil
		}
	}
}

func (p *parser) parseAtom() (logic.Atom, error) {
	p.skipSpace()
	rel := p.parseIdent()
	if rel == "" {
		return logic.Atom{}, fmt.Errorf("expected relation name at offset %d", p.pos)
	}
	p.skipSpace()
	if !p.eat('(') {
		return logic.Atom{}, fmt.Errorf("expected '(' after %s at offset %d", rel, p.pos)
	}
	var args []logic.Term
	for {
		p.skipSpace()
		if p.eat(')') {
			break
		}
		tm, err := p.parseTerm()
		if err != nil {
			return logic.Atom{}, err
		}
		args = append(args, tm)
		p.skipSpace()
		if p.eat(',') {
			continue
		}
		if p.eat(')') {
			break
		}
		return logic.Atom{}, fmt.Errorf("expected ',' or ')' at offset %d", p.pos)
	}
	if len(args) == 0 {
		return logic.Atom{}, fmt.Errorf("atom %s has no arguments", rel)
	}
	return logic.NewAtom(rel, args...), nil
}

func (p *parser) parseTerm() (logic.Term, error) {
	p.skipSpace()
	c := p.peek()
	switch {
	case c == '\'':
		start := p.pos
		p.pos++ // opening quote
		for !p.eof() {
			if p.src[p.pos] == '\\' {
				p.pos += 2
				continue
			}
			if p.src[p.pos] == '\'' {
				p.pos++
				v, err := value.Parse(p.src[start:p.pos])
				if err != nil {
					return logic.Term{}, err
				}
				return logic.Const(v), nil
			}
			p.pos++
		}
		return logic.Term{}, fmt.Errorf("unterminated string at offset %d", start)
	case c == '-' || (c >= '0' && c <= '9'):
		start := p.pos
		if c == '-' {
			p.pos++
		}
		for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		v, err := value.Parse(p.src[start:p.pos])
		if err != nil {
			return logic.Term{}, err
		}
		return logic.Const(v), nil
	default:
		name := p.parseIdent()
		if name == "" {
			return logic.Term{}, fmt.Errorf("expected term at offset %d", p.pos)
		}
		return logic.Var(name), nil
	}
}

// parseIdent reads an identifier: a letter or underscore followed by
// letters, digits, underscores or '#' (the renaming-apart marker).
func (p *parser) parseIdent() string {
	start := p.pos
	for !p.eof() {
		r := rune(p.src[p.pos])
		if unicode.IsLetter(r) || r == '_' || (p.pos > start && (unicode.IsDigit(r) || r == '#')) {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}
