package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/value"
)

// The possible-worlds oracle: Definition 3.1 by brute force, with no
// caches, no partitions and no solver. A world is the store's rows keyed
// like relstore keys them; a chain is admissible when some grounding of
// each transaction in turn — body matched against the world left by its
// predecessors, update applied with relstore's set semantics (deletes
// must hit, inserts must not collide on the key) — reaches the end.
type oracleWorld map[string]map[string]value.Tuple

// oracleKeys are the key columns of the oracle's relations (nil: the
// whole tuple, as in relstore).
var oracleKeys = map[string][]int{"Available": nil, "Bookings": {1, 2}}

func worldOf(src relstore.Source) oracleWorld {
	w := oracleWorld{}
	for rel, key := range oracleKeys {
		w[rel] = map[string]value.Tuple{}
		src.Scan(rel, func(tp value.Tuple) bool {
			w[rel][tp.Key(key)] = tp.Clone()
			return true
		})
	}
	return w
}

// apply returns the world after deletes then inserts, or false when one
// misses or collides.
func (w oracleWorld) apply(ins, del []relstore.GroundFact) (oracleWorld, bool) {
	next := oracleWorld{}
	for rel, rows := range w {
		next[rel] = make(map[string]value.Tuple, len(rows))
		for k, tp := range rows {
			next[rel][k] = tp
		}
	}
	for _, f := range del {
		k := f.Tuple.Key(oracleKeys[f.Rel])
		if cur, ok := next[f.Rel][k]; !ok || !cur.Equal(f.Tuple) {
			return nil, false
		}
		delete(next[f.Rel], k)
	}
	for _, f := range ins {
		k := f.Tuple.Key(oracleKeys[f.Rel])
		if _, ok := next[f.Rel][k]; ok {
			return nil, false
		}
		next[f.Rel][k] = f.Tuple
	}
	return next, true
}

// match enumerates the bindings of atoms over w, calling emit until it
// returns false; it reports whether enumeration was stopped.
func (w oracleWorld) match(atoms []logic.Atom, b map[string]value.Value, emit func(map[string]value.Value) bool) bool {
	if len(atoms) == 0 {
		return !emit(b)
	}
	a := atoms[0]
	for _, tp := range w[a.Rel] {
		nb := make(map[string]value.Value, len(b)+len(a.Args))
		for k, v := range b {
			nb[k] = v
		}
		ok := true
		for i, arg := range a.Args {
			if !arg.IsVar() {
				ok = arg.Value() == tp[i]
			} else if v, bound := nb[arg.Name()]; bound {
				ok = v == tp[i]
			} else {
				nb[arg.Name()] = tp[i]
			}
			if !ok {
				break
			}
		}
		if ok && w.match(atoms[1:], nb, emit) {
			return true
		}
	}
	return false
}

// admits reports whether chain, grounded in order over w, has a
// consistent grounding.
func (w oracleWorld) admits(chain []*txn.T) bool {
	if len(chain) == 0 {
		return true
	}
	t := chain[0]
	return w.match(t.HardAtoms(), map[string]value.Value{}, func(b map[string]value.Value) bool {
		var ins, del []relstore.GroundFact
		for _, op := range t.Update {
			tp := make(value.Tuple, len(op.Atom.Args))
			for i, arg := range op.Atom.Args {
				if arg.IsVar() {
					tp[i] = b[arg.Name()]
				} else {
					tp[i] = arg.Value()
				}
			}
			f := relstore.GroundFact{Rel: op.Atom.Rel, Tuple: tp}
			if op.Insert {
				ins = append(ins, f)
			} else {
				del = append(del, f)
			}
		}
		next, ok := w.apply(ins, del)
		return !(ok && next.admits(chain[1:]))
	})
}

// oracleTxn draws a plain resource transaction over 2 flights × 3 seats:
// any seat on a flight, one named seat, or any seat on any flight (which
// overlaps both flights' partitions and forces merges).
func oracleTxn(rng *rand.Rand, user string) *txn.T {
	f := 1 + rng.Intn(2)
	switch rng.Intn(3) {
	case 0:
		return book(user, f)
	case 1:
		return bookSeat(user, f, fmt.Sprintf("1%c", 'A'+rng.Intn(3)))
	}
	return txn.MustParse(fmt.Sprintf("-Available(f, s), +Bookings('%s', f, s) :-1 Available(f, s)", user))
}

// runOracle drives one engine through a random single-client interleaving
// of Submit, SubmitBatch, Ground, Read and Write (cancellations keep
// seats recycling, so admissions keep deciding both ways), checking every admission
// verdict (and every blind-write verdict) against the oracle, and that
// the pending chain stays admissible after every step. It returns the
// allowed gaps it saw.
//
// The one allowed gap: serial admission admits a batch member by member,
// each followed by its k-bound eviction, so a later member is decided
// against a world the eviction already narrowed to one grounding of the
// evicted head — it may be rejected where the oracle, which keeps every
// world of the grown chain, accepts (never the converse: a chain
// admissible after a forced grounding was admissible before it). Semantic
// mode has no gap here: its conservatism (move-to-front falling back to
// the strict prefix) picks which world a grounding collapses to, never
// what admission accepts.
func runOracle(t *testing.T, seed int64, opt Options, steps int) (gaps int) {
	rng := rand.New(rand.NewSource(seed))
	q := mustQDB(t, worldDB([]int{1, 2}, 3), opt)
	txns := map[int64]*txn.T{}
	chain := func() []*txn.T {
		var out []*txn.T
		for _, id := range q.PendingIDs() {
			out = append(out, txns[id])
		}
		return out
	}
	world := func() oracleWorld {
		s := q.Store().Snapshot()
		defer s.Release()
		return worldOf(s)
	}
	users := 0
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // Submit, or SubmitBatch of 1–4
			n, batch := 1, op >= 2
			if batch {
				n = 1 + rng.Intn(4)
			}
			ts := make([]*txn.T, n)
			for i := range ts {
				ts[i] = oracleTxn(rng, fmt.Sprintf("u%d", users))
				users++
			}
			w, grown := world(), chain()
			forced := q.Stats().ForcedByK
			var ids []int64
			var errs []error
			if batch {
				ids, errs = q.SubmitBatch(ts)
			} else {
				id, err := q.Submit(ts[0])
				ids, errs = []int64{id}, []error{err}
			}
			evicted := q.Stats().ForcedByK > forced
			for i, tx := range ts {
				if errs[i] != nil && !errors.Is(errs[i], ErrRejected) {
					t.Fatalf("seed %d step %d: submit %v: %v", seed, step, tx, errs[i])
				}
				got, want := errs[i] == nil, w.admits(append(grown, tx))
				switch {
				case got == want:
				case !got && i > 0 && batch && evicted && opt.SerialAdmission:
					gaps++
				default:
					t.Fatalf("seed %d step %d (%+v): member %d/%d %v accepted=%v, oracle says %v",
						seed, step, opt, i, n, tx, got, want)
				}
				if got {
					txns[ids[i]] = tx
					grown = append(grown, tx)
				}
			}
		case op < 6:
			if ids := q.PendingIDs(); len(ids) > 0 {
				if err := q.Ground(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatalf("seed %d step %d: ground: %v", seed, step, err)
				}
			}
		case op == 6:
			query := []logic.Atom{logic.NewAtom("Available", logic.Int(int64(1+rng.Intn(2))), logic.Var("s"))}
			if rng.Intn(2) == 0 {
				query = []logic.Atom{logic.NewAtom("Bookings", logic.Str(fmt.Sprintf("u%d", rng.Intn(users+1))), logic.Var("f"), logic.Var("s"))}
			}
			if _, err := q.Read(query); err != nil {
				t.Fatalf("seed %d step %d: read: %v", seed, step, err)
			}
		default: // blind write: take an available seat, cancel a booking, or free a taken seat
			w := world()
			f := tup(1+rng.Intn(2), fmt.Sprintf("1%c", 'A'+rng.Intn(3)))
			seat := []relstore.GroundFact{{Rel: "Available", Tuple: f}}
			var ins, del []relstore.GroundFact
			if _, avail := w["Available"][f.Key(nil)]; avail {
				del = seat
			} else if b, booked := w["Bookings"][f.Key(nil)]; booked {
				ins, del = seat, []relstore.GroundFact{{Rel: "Bookings", Tuple: b}}
			} else {
				ins = seat
			}
			after, _ := w.apply(ins, del)
			err := q.Write(ins, del)
			if err != nil && !errors.Is(err, ErrWriteRejected) {
				t.Fatalf("seed %d step %d: write: %v", seed, step, err)
			}
			if got, want := err == nil, after.admits(chain()); got != want {
				t.Fatalf("seed %d step %d (%+v): write %v/%v accepted=%v, oracle says %v", seed, step, opt, ins, del, got, want)
			}
		}
		if !world().admits(chain()) {
			t.Fatalf("seed %d step %d (%+v): pending chain has no consistent grounding", seed, step, opt)
		}
	}
	return gaps
}

// oracleOptions decodes a configuration: K in {1, 2, unbounded}, serial
// admission on or off, both Modes, and (fuzz only) the cache ablation.
func oracleOptions(c uint8) Options {
	return Options{
		K:               []int{1, 2, -1}[c%3],
		SerialAdmission: c/3%2 == 1,
		Mode:            Mode(c / 6 % 2),
		DisableCache:    c/12%2 == 1,
	}
}

func TestAdmissionMatchesOracle(t *testing.T) {
	gaps := 0
	for c := uint8(0); c < 12; c++ {
		for seed := int64(1); seed <= 6; seed++ {
			gaps += runOracle(t, seed, oracleOptions(c), 150)
		}
	}
	t.Logf("allowed gaps (serial batch members behind a k-eviction): %d", gaps)
}

func FuzzAdmissionOracle(f *testing.F) {
	for c := uint8(0); c < 24; c++ {
		f.Add(int64(c), c)
	}
	f.Fuzz(func(t *testing.T, seed int64, c uint8) {
		runOracle(t, seed, oracleOptions(c), 60)
	})
}
