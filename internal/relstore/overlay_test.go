package relstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/value"
)

// stackModel is the reference for Overlay: the design the undo log
// replaced, a stack of delta layers with one layer per Mark, each holding
// its adds and deletes in insertion order. Mark pushes a layer and Undo
// pops back to it; ApplyFacts copies the top layer first and restores the
// copy on error. Every read is answered the way the nested stack answered
// it, so comparing against it checks rows, row order and the planner's
// estimates.
type stackModel struct {
	base   *DB
	layers []modelLayer
}

type modelLayer struct{ adds, dels []modelEntry }

type modelEntry struct {
	rel, key string
	tup      value.Tuple
}

func (l modelLayer) clone() modelLayer {
	return modelLayer{adds: slices.Clone(l.adds), dels: slices.Clone(l.dels)}
}

func findModel(es []modelEntry, rel, key string) int {
	return slices.IndexFunc(es, func(e modelEntry) bool { return e.rel == rel && e.key == key })
}

func (m *stackModel) key(rel string, tup value.Tuple) string {
	sch, _ := m.base.SchemaOf(rel)
	return sch.keyOf(tup)
}

// visible returns the tuple under (rel, key) as seen through layers[:n].
func (m *stackModel) visible(n int, rel, key string) (value.Tuple, bool) {
	for i := n - 1; i >= 0; i-- {
		l := m.layers[i]
		if j := findModel(l.adds, rel, key); j >= 0 {
			return l.adds[j].tup, true
		}
		if findModel(l.dels, rel, key) >= 0 {
			return nil, false
		}
	}
	var found value.Tuple
	m.base.Scan(rel, func(t value.Tuple) bool {
		if m.key(rel, t) == key {
			found = t
			return false
		}
		return true
	})
	return found, found != nil
}

func (m *stackModel) insert(rel string, tup value.Tuple) error {
	sch, ok := m.base.SchemaOf(rel)
	if !ok || len(tup) != sch.Arity() {
		return fmt.Errorf("bad insert")
	}
	k := m.key(rel, tup)
	if _, ok := m.visible(len(m.layers), rel, k); ok {
		return fmt.Errorf("duplicate")
	}
	top := &m.layers[len(m.layers)-1]
	top.adds = append(top.adds, modelEntry{rel, k, tup})
	return nil
}

func (m *stackModel) delete(rel string, tup value.Tuple) error {
	if _, ok := m.base.SchemaOf(rel); !ok {
		return fmt.Errorf("unknown relation")
	}
	k := m.key(rel, tup)
	top := &m.layers[len(m.layers)-1]
	if j := findModel(top.adds, rel, k); j >= 0 {
		if !top.adds[j].tup.Equal(tup) {
			return fmt.Errorf("mismatch")
		}
		top.adds = slices.Delete(top.adds, j, j+1)
		return nil
	}
	if findModel(top.dels, rel, k) >= 0 {
		return fmt.Errorf("double delete")
	}
	if got, ok := m.visible(len(m.layers)-1, rel, k); !ok || !got.Equal(tup) {
		return fmt.Errorf("absent")
	}
	top.dels = append(top.dels, modelEntry{rel, k, tup})
	return nil
}

func (m *stackModel) applyFacts(ins, dels []GroundFact) error {
	saved := m.layers[len(m.layers)-1].clone()
	for _, d := range dels {
		if err := m.delete(d.Rel, d.Tuple); err != nil {
			m.layers[len(m.layers)-1] = saved
			return err
		}
	}
	for _, in := range ins {
		if err := m.insert(in.Rel, in.Tuple); err != nil {
			m.layers[len(m.layers)-1] = saved
			return err
		}
	}
	return nil
}

// rows returns what a scan of layers[:n] emits, given the base rows.
func (m *stackModel) rows(n int, rel string, base []value.Tuple, match func(value.Tuple) bool) []value.Tuple {
	if n == 0 {
		return base
	}
	l := m.layers[n-1]
	var out []value.Tuple
	for _, t := range m.rows(n-1, rel, base, match) {
		if findModel(l.dels, rel, m.key(rel, t)) < 0 {
			out = append(out, t)
		}
	}
	for _, e := range l.adds {
		if e.rel == rel && match(e.tup) {
			out = append(out, e.tup)
		}
	}
	return out
}

// adds counts the stack's adds matching rel and match: the nested
// stack's estimate on top of the base count.
func (m *stackModel) adds(rel string, match func(value.Tuple) bool) int {
	n := 0
	for _, l := range m.layers {
		for _, e := range l.adds {
			if e.rel == rel && match(e.tup) {
				n++
			}
		}
	}
	return n
}

func (m *stackModel) len(rel string) int {
	n := m.base.Len(rel)
	for _, l := range m.layers {
		for _, e := range l.adds {
			if e.rel == rel {
				n++
			}
		}
		for _, e := range l.dels {
			if e.rel == rel {
				n--
			}
		}
	}
	return n
}

// modelDomain is small, so keys collide and deletes hit adds often.
const modelDomain = 3

func modelDB() *DB {
	db := NewDB()
	db.MustCreateTable(Schema{Name: "R", Columns: []string{"k", "v", "w"}, Key: []int{0}, Indexes: [][]int{{1, 2}}})
	db.MustCreateTable(Schema{Name: "S", Columns: []string{"a", "b"}})
	for k := 0; k < modelDomain; k += 2 {
		db.MustInsert("R", value.Tuple{value.NewInt(int64(k)), value.NewInt(int64(k % 2)), value.NewInt(0)})
	}
	db.MustInsert("S", value.Tuple{value.NewInt(0), value.NewInt(1)})
	db.MustInsert("S", value.Tuple{value.NewInt(1), value.NewInt(1)})
	return db
}

func modelTuple(pick func(int) int, rel string) value.Tuple {
	n := 2
	if rel == "R" {
		n = 3
	}
	if pick(16) == 0 {
		n-- // arity mismatch
	}
	t := make(value.Tuple, n)
	for i := range t {
		t[i] = value.NewInt(int64(pick(modelDomain)))
	}
	return t
}

func modelFacts(pick func(int) int) []GroundFact {
	fs := make([]GroundFact, pick(3))
	for i := range fs {
		rel := []string{"R", "S"}[pick(2)]
		fs[i] = GroundFact{Rel: rel, Tuple: modelTuple(pick, rel)}
	}
	return fs
}

func collect(scan func(func(value.Tuple) bool)) []string {
	var out []string
	scan(func(t value.Tuple) bool { out = append(out, t.String()); return true })
	return out
}

func render(ts []value.Tuple) []string {
	var out []string
	for _, t := range ts {
		out = append(out, t.String())
	}
	return out
}

// checkOverlay compares every read of o against the model.
func checkOverlay(m *stackModel, o *Overlay) error {
	n := len(m.layers)
	all := func(value.Tuple) bool { return true }
	for _, rel := range []string{"R", "S"} {
		sch, _ := m.base.SchemaOf(rel)
		if got, want := collect(func(f func(value.Tuple) bool) { o.Scan(rel, f) }),
			render(m.rows(n, rel, m.base.All(rel), all)); !slices.Equal(got, want) {
			return fmt.Errorf("Scan(%s) = %v, want %v", rel, got, want)
		}
		if got, want := o.Len(rel), m.len(rel); got != want {
			return fmt.Errorf("Len(%s) = %d, want %d", rel, got, want)
		}
		for col := 0; col < sch.Arity(); col++ {
			for x := 0; x < modelDomain; x++ {
				v := value.NewInt(int64(x))
				match := func(t value.Tuple) bool { return t[col] == v }
				var base []value.Tuple
				m.base.IndexScan(rel, col, v, func(t value.Tuple) bool { base = append(base, t); return true })
				if got, want := collect(func(f func(value.Tuple) bool) { o.IndexScan(rel, col, v, f) }),
					render(m.rows(n, rel, base, match)); !slices.Equal(got, want) {
					return fmt.Errorf("IndexScan(%s, %d, %d) = %v, want %v", rel, col, x, got, want)
				}
				if got, want := o.IndexCount(rel, col, v), m.base.IndexCount(rel, col, v)+m.adds(rel, match); got != want {
					return fmt.Errorf("IndexCount(%s, %d, %d) = %d, want %d", rel, col, x, got, want)
				}
			}
		}
		for ix, cols := range sch.Indexes {
			for x := 0; x < modelDomain*modelDomain; x++ {
				key := value.Tuple{value.NewInt(int64(x / modelDomain)), value.NewInt(int64(x % modelDomain))}.Key(nil)
				match := func(t value.Tuple) bool { return t.Key(cols) == key }
				var base []value.Tuple
				m.base.CompositeScan(rel, ix, key, func(t value.Tuple) bool { base = append(base, t); return true })
				if got, want := collect(func(f func(value.Tuple) bool) { o.CompositeScan(rel, ix, key, f) }),
					render(m.rows(n, rel, base, match)); !slices.Equal(got, want) {
					return fmt.Errorf("CompositeScan(%s, %d) = %v, want %v", rel, x, got, want)
				}
				if got, want := o.CompositeCount(rel, ix, key), m.base.CompositeCount(rel, ix, key)+m.adds(rel, match); got != want {
					return fmt.Errorf("CompositeCount(%s, %d) = %d, want %d", rel, x, got, want)
				}
			}
		}
		// Contains and ContainsKey over the whole domain.
		for x := 0; x < modelDomain*modelDomain*modelDomain; x++ {
			t := value.Tuple{value.NewInt(int64(x % modelDomain)), value.NewInt(int64(x / modelDomain % modelDomain)), value.NewInt(int64(x / modelDomain / modelDomain))}
			t = t[:sch.Arity()]
			k := m.key(rel, t)
			got, ok := m.visible(n, rel, k)
			if o.ContainsKey(rel, []byte(k)) != ok {
				return fmt.Errorf("ContainsKey(%s, %v) = %v, want %v", rel, t, !ok, ok)
			}
			if want := ok && got.Equal(t); o.Contains(rel, t) != want {
				return fmt.Errorf("Contains(%s, %v) = %v, want %v", rel, t, !want, want)
			}
		}
	}
	return nil
}

// runOverlayModel drives an Overlay and the model through the same
// random Insert/Delete/ApplyFacts/Mark/Undo sequence, comparing every
// read after every step. pick(n) returns a choice in [0, n).
func runOverlayModel(steps int, pick func(int) int) error {
	db := modelDB()
	m := &stackModel{base: db, layers: []modelLayer{{}}}
	o := NewOverlay(db)
	type open struct {
		mark  UndoMark
		depth int
	}
	var marks []open
	for step := 0; step < steps; step++ {
		var errO, errM error
		what := ""
		switch pick(6) {
		case 0, 1:
			rel := []string{"R", "S"}[pick(2)]
			t := modelTuple(pick, rel)
			what = "insert " + rel + t.String()
			errO, errM = o.Insert(rel, t), m.insert(rel, t)
		case 2:
			rel := []string{"R", "S"}[pick(2)]
			t := modelTuple(pick, rel)
			if rows := m.rows(len(m.layers), rel, db.All(rel), func(value.Tuple) bool { return true }); len(rows) > 0 && pick(4) > 0 {
				t = rows[pick(len(rows))] // usually delete a visible row
			}
			what = "delete " + rel + t.String()
			errO, errM = o.Delete(rel, t), m.delete(rel, t)
		case 3:
			ins, dels := modelFacts(pick), modelFacts(pick)
			what = fmt.Sprintf("apply +%v -%v", ins, dels)
			errO, errM = o.ApplyFacts(ins, dels), m.applyFacts(ins, dels)
		case 4:
			what = "mark"
			marks = append(marks, open{o.Mark(), len(m.layers)})
			m.layers = append(m.layers, modelLayer{})
		case 5:
			if len(marks) == 0 {
				continue
			}
			k := len(marks) - 1
			if pick(4) == 0 {
				k = pick(len(marks)) // undo several marks at once
			}
			what = fmt.Sprintf("undo to mark %d of %d", k, len(marks))
			o.Undo(marks[k].mark)
			m.layers = m.layers[:marks[k].depth]
			marks = marks[:k]
		}
		if (errO == nil) != (errM == nil) {
			return fmt.Errorf("step %d (%s): overlay error %v, model error %v", step, what, errO, errM)
		}
		if err := checkOverlay(m, o); err != nil {
			return fmt.Errorf("step %d (%s): %w", step, what, err)
		}
	}
	return nil
}

// TestOverlayUndoModel checks the undo-log overlay against the nested
// stack it replaced: the same rows in the same order from every scan, the
// same Contains/ContainsKey/Len answers and the same planner estimates,
// through random Insert/Delete/ApplyFacts/Mark/Undo sequences.
func TestOverlayUndoModel(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		if err := runOverlayModel(60, r.Intn); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzOverlayUndo drives the same model comparison from fuzzer bytes.
func FuzzOverlayUndo(f *testing.F) {
	f.Add([]byte{0, 1, 2, 4, 0, 3, 2, 5, 5, 1, 4, 2, 0, 0, 5})
	f.Add([]byte{4, 3, 1, 2, 1, 0, 4, 2, 1, 0, 0, 5, 0, 4, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		pick := func(n int) int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1]) % n
		}
		if err := runOverlayModel(len(data)/2+1, pick); err != nil {
			t.Fatal(err)
		}
	})
}
