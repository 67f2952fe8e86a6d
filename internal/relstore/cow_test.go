package relstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/value"
)

// modelTable is the naive reference for one relation: an insertion-
// ordered row list with swap-remove, and per index key an ordered list
// with swap-remove — the order contract the paged table must reproduce
// (grounding choice follows scan and bucket order).
type modelTable struct {
	schema Schema
	rows   []value.Tuple
	byKey  map[string]value.Tuple // primary key → row
	index  []map[string][]value.Tuple
	comp   []map[string][]value.Tuple
}

func newModelTable(s Schema) *modelTable {
	m := &modelTable{schema: s, byKey: map[string]value.Tuple{},
		index: make([]map[string][]value.Tuple, s.Arity()),
		comp:  make([]map[string][]value.Tuple, len(s.Indexes))}
	for i := range m.index {
		m.index[i] = map[string][]value.Tuple{}
	}
	for i := range m.comp {
		m.comp[i] = map[string][]value.Tuple{}
	}
	return m
}

// find returns the row sharing tup's primary key.
func (m *modelTable) find(tup value.Tuple) (value.Tuple, bool) {
	r, ok := m.byKey[m.schema.keyOf(tup)]
	return r, ok
}

func (m *modelTable) insert(tup value.Tuple) bool {
	if _, ok := m.find(tup); ok {
		return false
	}
	m.rows = append(m.rows, tup)
	m.byKey[m.schema.keyOf(tup)] = tup
	for c, v := range tup {
		k := string(v.AppendBinary(nil))
		m.index[c][k] = append(m.index[c][k], tup)
	}
	for i, cols := range m.schema.Indexes {
		k := tup.Key(cols)
		m.comp[i][k] = append(m.comp[i][k], tup)
	}
	return true
}

func swapOut(list []value.Tuple, tup value.Tuple) []value.Tuple {
	for i, r := range list {
		if r.Equal(tup) {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	panic("model: tuple not in list")
}

func (m *modelTable) delete(tup value.Tuple) bool {
	if r, ok := m.find(tup); !ok || !r.Equal(tup) {
		return false
	}
	m.rows = swapOut(m.rows, tup)
	delete(m.byKey, m.schema.keyOf(tup))
	for c, v := range tup {
		k := string(v.AppendBinary(nil))
		if m.index[c][k] = swapOut(m.index[c][k], tup); len(m.index[c][k]) == 0 {
			delete(m.index[c], k)
		}
	}
	for i, cols := range m.schema.Indexes {
		k := tup.Key(cols)
		if m.comp[i][k] = swapOut(m.comp[i][k], tup); len(m.comp[i][k]) == 0 {
			delete(m.comp[i], k)
		}
	}
	return true
}

// freeze deep-copies the list structure (tuples are immutable).
func (m *modelTable) freeze() *modelTable {
	f := newModelTable(m.schema)
	f.rows = append([]value.Tuple(nil), m.rows...)
	for k, r := range m.byKey {
		f.byKey[k] = r
	}
	for c := range m.index {
		for k, l := range m.index[c] {
			f.index[c][k] = append([]value.Tuple(nil), l...)
		}
	}
	for i := range m.comp {
		for k, l := range m.comp[i] {
			f.comp[i][k] = append([]value.Tuple(nil), l...)
		}
	}
	return f
}

type model map[string]*modelTable

func (m model) freeze() model {
	f := model{}
	for n, t := range m {
		f[n] = t.freeze()
	}
	return f
}

// encode renders the model through a fresh DB; the snapshot format is
// canonical, so equal content must give equal bytes.
func (m model) encode(t testing.TB) []byte {
	db := NewDB()
	for _, mt := range m {
		db.MustCreateTable(mt.schema)
		for _, r := range mt.rows {
			db.MustInsert(mt.schema.Name, r)
		}
	}
	var buf bytes.Buffer
	if err := db.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameOrder(got, want []value.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return false
		}
	}
	return true
}

// checkSource compares every Source read of src against the model, scan
// and bucket order included. probes are extra tuples (mostly absent) for
// the containment checks.
func checkSource(src Source, m model, probes []value.Tuple) error {
	for name, mt := range m {
		if got := src.Len(name); got != len(mt.rows) {
			return fmt.Errorf("%s: Len %d, model %d", name, got, len(mt.rows))
		}
		var got []value.Tuple
		src.Scan(name, func(t value.Tuple) bool { got = append(got, t); return true })
		if !sameOrder(got, mt.rows) {
			return fmt.Errorf("%s: Scan order differs from model (%d vs %d rows)", name, len(got), len(mt.rows))
		}
		for c := range mt.index {
			for k, want := range mt.index[c] {
				v, _, err := value.DecodeBinary([]byte(k))
				if err != nil {
					return err
				}
				got = got[:0]
				src.IndexScan(name, c, v, func(t value.Tuple) bool { got = append(got, t); return true })
				if !sameOrder(got, want) {
					return fmt.Errorf("%s: IndexScan col %d = %v differs from model", name, c, v)
				}
				if n := src.IndexCount(name, c, v); n != len(want) {
					return fmt.Errorf("%s: IndexCount col %d = %v is %d, model %d", name, c, v, n, len(want))
				}
			}
		}
		for i := range mt.comp {
			for k, want := range mt.comp[i] {
				got = got[:0]
				src.CompositeScan(name, i, k, func(t value.Tuple) bool { got = append(got, t); return true })
				if !sameOrder(got, want) {
					return fmt.Errorf("%s: CompositeScan %d differs from model", name, i)
				}
				if n := src.CompositeCount(name, i, k); n != len(want) {
					return fmt.Errorf("%s: CompositeCount %d is %d, model %d", name, i, n, len(want))
				}
			}
		}
		for _, p := range append(append([]value.Tuple(nil), probes...), mt.rows...) {
			if len(p) != mt.schema.Arity() {
				continue
			}
			r, keyed := mt.find(p)
			if got, want := src.Contains(name, p), keyed && r.Equal(p); got != want {
				return fmt.Errorf("%s: Contains(%v) = %v, model %v", name, p, got, want)
			}
			if got := src.ContainsKey(name, mt.schema.appendKeyOf(nil, p)); got != keyed {
				return fmt.Errorf("%s: ContainsKey(%v) = %v, model %v", name, p, got, keyed)
			}
		}
	}
	return nil
}

// cowWorld drives a DB and its model in lockstep.
type cowWorld struct {
	t   testing.TB
	rng *rand.Rand
	db  *DB
	m   model
	// domain bounds the values drawn per column: small domains make big
	// buckets, large ones make one bucket per row.
	domain int
}

var cowSchemas = []Schema{
	{Name: "Seat", Columns: []string{"fno", "sno"}},
	{Name: "Book", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}, Indexes: [][]int{{0, 1}}},
}

func newCowWorld(t testing.TB, seed int64, domain int) *cowWorld {
	w := &cowWorld{t: t, rng: rand.New(rand.NewSource(seed)), db: NewDB(), m: model{}, domain: domain}
	for _, s := range cowSchemas {
		w.db.MustCreateTable(s)
		w.m[s.Name] = newModelTable(s)
	}
	return w
}

func (w *cowWorld) randTuple(rel string) value.Tuple {
	f := w.rng.Intn(w.domain)
	s := fmt.Sprintf("s%d", w.rng.Intn(w.domain))
	if rel == "Seat" {
		return tup(f, s)
	}
	return tup(fmt.Sprintf("u%d", w.rng.Intn(8*w.domain)), f, s)
}

func (w *cowWorld) rel() string { return cowSchemas[w.rng.Intn(len(cowSchemas))].Name }

// insert and remove apply one operation to both sides and require the
// same outcome.
func (w *cowWorld) insert(rel string, tp value.Tuple) {
	err := w.db.Insert(rel, tp)
	if ok := w.m[rel].insert(tp); ok != (err == nil) {
		w.t.Fatalf("insert %s%v: store err %v, model accepted %v", rel, tp, err, ok)
	}
}

func (w *cowWorld) remove(rel string, tp value.Tuple) {
	err := w.db.Delete(rel, tp)
	if ok := w.m[rel].delete(tp); ok != (err == nil) {
		w.t.Fatalf("delete %s%v: store err %v, model accepted %v", rel, tp, err, ok)
	}
}

// step performs one random mutation: mostly inserts while below target
// rows, mostly deletes above it, through Insert, Delete or Apply (with
// the occasional batch that fails and must roll back).
func (w *cowWorld) step(target int) {
	rel := w.rel()
	mt := w.m[rel]
	grow := len(mt.rows) < target
	if w.rng.Intn(4) == 0 {
		grow = !grow
	}
	switch {
	case w.rng.Intn(10) == 0 && len(mt.rows) > 0:
		// A batch: delete one row, insert another; one time in three
		// append an insert that collides so the whole batch rolls back.
		del := mt.rows[w.rng.Intn(len(mt.rows))]
		ins := w.randTuple(rel)
		inserts := []GroundFact{{Rel: rel, Tuple: ins}}
		if w.rng.Intn(3) == 0 {
			inserts = append(inserts, GroundFact{Rel: rel, Tuple: mt.rows[0]})
		}
		err := w.db.Apply(inserts, []GroundFact{{Rel: rel, Tuple: del}})
		// Mirror Apply: deletes, then inserts, and on the first failure
		// compensate in reverse — which re-appends, so even a rolled-back
		// batch moves rows.
		mt.delete(del)
		done := 0
		for ; done < len(inserts) && mt.insert(inserts[done].Tuple); done++ {
		}
		if (done == len(inserts)) != (err == nil) {
			w.t.Fatalf("Apply err %v, model applied %d of %d inserts", err, done, len(inserts))
		}
		if err != nil {
			for done--; done >= 0; done-- {
				mt.delete(inserts[done].Tuple)
			}
			mt.insert(del)
		}
	case grow:
		w.insert(rel, w.randTuple(rel))
	case len(mt.rows) > 0 && w.rng.Intn(8) != 0:
		w.remove(rel, mt.rows[w.rng.Intn(len(mt.rows))])
	default:
		w.remove(rel, w.randTuple(rel)) // usually absent
	}
}

func (w *cowWorld) probes() []value.Tuple {
	var ps []value.Tuple
	for i := 0; i < 8; i++ {
		ps = append(ps, w.randTuple("Seat"), w.randTuple("Book"))
	}
	return ps
}

type pinned struct {
	snap *Snapshot
	m    model
	enc  []byte
}

func (w *cowWorld) pin() *pinned {
	m := w.m.freeze()
	return &pinned{snap: w.db.Snapshot(), m: m, enc: m.encode(w.t)}
}

func (p *pinned) check(probes []value.Tuple) error {
	if err := checkSource(p.snap, p.m, probes); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := p.snap.Encode(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), p.enc) {
		return fmt.Errorf("Encode differs from the model frozen at pin time")
	}
	return nil
}

// TestCOWModelRandom interleaves inserts, deletes, batches, pins and
// releases at random and requires the live store and every live
// snapshot to match the model (the snapshot: the model frozen at pin
// time). Two shapes: few distinct values (big buckets, vector pages
// split and merge) and many (a bucket per row, map shards split).
func TestCOWModelRandom(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		domain, target, steps int
	}{
		{"bigBuckets", 12, 120, 4000},
		{"manyBuckets", 400, 5000, 14000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newCowWorld(t, 1, tc.domain)
			var live []*pinned
			for i := 0; i < tc.steps; i++ {
				w.step(tc.target)
				switch r := w.rng.Intn(40); {
				case r == 0 && len(live) < 6:
					live = append(live, w.pin())
				case r == 1 && len(live) > 0:
					j := w.rng.Intn(len(live))
					live[j].snap.Release()
					live = append(live[:j], live[j+1:]...)
				}
				if i%(tc.steps/20) != 0 {
					continue
				}
				probes := w.probes()
				if err := checkSource(w.db, w.m, probes); err != nil {
					t.Fatalf("step %d: live store: %v", i, err)
				}
				for _, p := range live {
					if err := p.check(probes); err != nil {
						t.Fatalf("step %d: snapshot: %v", i, err)
					}
				}
			}
			if n := w.db.SnapshotsLive(); n != len(live) {
				t.Fatalf("SnapshotsLive = %d, want %d", n, len(live))
			}
		})
	}
}

// TestCOWVersionChains pins a chain of versions (pin, write, pin, write,
// ...) and releases them oldest-first, newest-first and inside-out: at
// every point each still-pinned link must read as it did when pinned.
func TestCOWVersionChains(t *testing.T) {
	orders := map[string][]int{
		"oldestFirst": {0, 1, 2, 3, 4},
		"newestFirst": {4, 3, 2, 1, 0},
		"insideOut":   {2, 1, 3, 0, 4},
	}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			w := newCowWorld(t, 2, 30)
			for i := 0; i < 600; i++ {
				w.step(300)
			}
			chain := make([]*pinned, 5)
			for i := range chain {
				chain[i] = w.pin()
				for j := 0; j < 40; j++ {
					w.step(300)
				}
			}
			probes := w.probes()
			for _, rel := range order {
				for i, p := range chain {
					if p == nil {
						continue
					}
					if err := p.check(probes); err != nil {
						t.Fatalf("link %d before releasing %d: %v", i, rel, err)
					}
				}
				chain[rel].snap.Release()
				chain[rel] = nil
				for j := 0; j < 40; j++ {
					w.step(300)
				}
				if err := checkSource(w.db, w.m, probes); err != nil {
					t.Fatalf("live store after releasing %d: %v", rel, err)
				}
			}
		})
	}
}

// TestCOWConcurrentReaders has readers scan pinned versions, lock-free,
// while one writer churns the live store and keeps pinning new versions:
// under -race this is the check that a pinned version's pages are never
// written.
func TestCOWConcurrentReaders(t *testing.T) {
	w := newCowWorld(t, 3, 40)
	for i := 0; i < 1500; i++ {
		w.step(700)
	}
	const readers = 4
	work := make(chan *pinned, readers) // one pinned version in hand per reader
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				for pass := 0; pass < 3; pass++ {
					if err := p.check(nil); err != nil {
						errs <- err
						return
					}
				}
				p.snap.Release()
			}
		}()
	}
	var failed error
	for round := 0; round < 40 && failed == nil; round++ {
		select {
		case work <- w.pin():
		case failed = <-errs:
		}
		for j := 0; j < 100; j++ {
			w.step(700)
		}
	}
	close(work)
	wg.Wait()
	select {
	case failed = <-errs:
	default:
	}
	if failed != nil {
		t.Fatal(failed)
	}
	if err := checkSource(w.db, w.m, w.probes()); err != nil {
		t.Fatalf("live store: %v", err)
	}
}

// TestApplyPinnedCostIndependentOfTableSize: the first write to a table a
// snapshot pins pays for the pages it touches, not for the table — a
// 64k-row table costs about what a 1k-row one does, in bytes and in
// allocations. (Table-granular copy-on-write was 64x apart here.)
func TestApplyPinnedCostIndependentOfTableSize(t *testing.T) {
	const writes = 64 // spread over the table, so shard fill averages out
	cost := func(rows int) (bytes, allocs float64) {
		db := NewDB()
		db.MustCreateTable(Schema{Name: "Seat", Columns: []string{"fno", "sno"}})
		db.MustCreateTable(Schema{Name: "Book", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}, Indexes: [][]int{{0, 1}}})
		for i := 0; i < rows; i++ {
			db.MustInsert("Seat", tup(i/150, fmt.Sprintf("s%d", i%150)))
			db.MustInsert("Book", tup(fmt.Sprintf("u%d", i), i/150, fmt.Sprintf("s%d", i%150)))
		}
		var before, after runtime.MemStats
		for w := 0; w < writes; w++ {
			f := w * (rows / 150) / writes
			ins := []GroundFact{
				{Rel: "Seat", Tuple: tup(f, "extra")},
				{Rel: "Book", Tuple: tup(fmt.Sprintf("u%d", w*rows/writes), f, "extra")},
			}
			snap := db.Snapshot()
			runtime.ReadMemStats(&before)
			err := db.Apply(ins, nil)
			runtime.ReadMemStats(&after)
			snap.Release()
			if err != nil {
				t.Fatal(err)
			}
			bytes += float64(after.TotalAlloc - before.TotalAlloc)
			allocs += float64(after.Mallocs - before.Mallocs)
			if err := db.Apply(nil, ins); err != nil { // unpinned: in place
				t.Fatal(err)
			}
		}
		return bytes / writes, allocs / writes
	}
	smallB, smallA := cost(1_000)
	bigB, bigA := cost(64_000)
	t.Logf("first write to a pinned table: %.0f B, %.1f allocs at 1k rows; %.0f B, %.1f allocs at 64k rows", smallB, smallA, bigB, bigA)
	if bigB > 2*smallB || bigA > 2*smallA {
		t.Fatalf("cost grows with the table: %.0f B / %.1f allocs at 1k rows, %.0f B / %.1f allocs at 64k rows", smallB, smallA, bigB, bigA)
	}
}

// TestCowMapAgainstGoMap drives the sharded hash map alone — growth,
// splits, directory doubling, backward-shift deletion, probe wrap-around —
// against a Go map, switching to a successor version now and then and
// checking that the predecessor still reads what it held.
func TestCowMapAgainstGoMap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	stats := &cowStats{}
	ver := version{stamp: 1, stats: stats}
	m := newCowMap[int32](&ver)
	ref := map[string]int32{}
	check := func(m *cowMap[int32], ref map[string]int32, when string) {
		t.Helper()
		for k, want := range ref {
			if got, ok := m.get([]byte(k)); !ok || got != want {
				t.Fatalf("%s: get(%q) = %d, %v; want %d", when, k, got, ok, want)
			}
		}
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("absent%d", i)
			if _, ok := m.getString(k); ok {
				t.Fatalf("%s: found absent key %q", when, k)
			}
		}
	}
	var oldMap cowMap[int32]
	var oldRef map[string]int32
	for step := 0; step < 60000; step++ {
		k := fmt.Sprintf("k%d", rng.Intn(4000))
		h := hashString(k)
		if rng.Intn(5) < 3 {
			x := int32(rng.Int31())
			m.put(&ver, h, k, x)
			ref[k] = x
		} else {
			m.del(&ver, h, k)
			delete(ref, k)
		}
		if step%5000 == 4999 {
			check(&m, ref, "live")
			if oldRef != nil {
				check(&oldMap, oldRef, "predecessor")
			}
			// Freeze this version: copy the header and the reference, and
			// carry on under a fresh stamp.
			oldMap, oldRef = m, map[string]int32{}
			for k, x := range ref {
				oldRef[k] = x
			}
			ver.stamp++
		}
	}
	if stats.copies.Load() == 0 {
		t.Fatal("successor versions copied nothing")
	}
}
