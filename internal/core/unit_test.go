package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/formula"
	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Commit units: the groundings one call executes share one WAL batch and
// one atomic store apply, and an admission's pending batch carries the
// k-bound evictions its install triggers. These tests pin the unit's
// crash and abort behaviour: a crash between the unit's sync and its
// apply recovers every grounding of the unit, and a unit that no longer
// applies leaves the store unchanged, is compensated by one batch, and
// is skipped by recovery and by followers — while the admissions it
// carried stay registered.

// walBatches reads every batch of the log at path.
func walBatches(t *testing.T, path string) []wal.Batch {
	t.Helper()
	bs, err := wal.ReadAll(path)
	if err != nil {
		t.Fatalf("reading WAL: %v", err)
	}
	return bs
}

// countRecs counts the records of type typ in b.
func countRecs(b wal.Batch, typ uint8) int {
	n := 0
	for _, r := range b.Records {
		if r.Type == typ {
			n++
		}
	}
	return n
}

func TestCrashBetweenSyncAndApplyPairUnit(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "qdb.wal")
	mk := func() *relstore.DB { return worldDB([]int{1, 2}, 6) }
	opts := Options{WALPath: walPath, SyncWAL: true, WALSegments: 2}

	ref := mustQDB(t, mk(), Options{})
	refA, _ := ref.Submit(book("A", 1))
	refB, _ := ref.Submit(book("B", 1))
	if _, err := ref.Submit(book("C", 2)); err != nil {
		t.Fatal(err)
	}
	if err := ref.GroundGroup([]int64{refA, refB}); err != nil {
		t.Fatal(err)
	}
	want := stateOf(ref)

	q, err := New(mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	idA, _ := q.Submit(book("A", 1))
	idB, _ := q.Submit(book("B", 1))
	if _, err := q.Submit(book("C", 2)); err != nil {
		t.Fatal(err)
	}
	q.testCrashApply = func() error {
		// The pair is one durable batch holding both tombstones; neither
		// booking is in the store yet.
		bs := walBatches(t, walPath)
		if last := bs[len(bs)-1]; countRecs(last, recGrounded) != 2 || countRecs(last, recInsert) != 2 {
			t.Errorf("at fault point: last batch holds %d tombstones and %d inserts, want 2 and 2",
				countRecs(last, recGrounded), countRecs(last, recInsert))
		}
		if n := q.Store().Len("Bookings"); n != 0 {
			t.Errorf("at fault point: %d bookings applied, want 0", n)
		}
		return errInjectedCrash
	}
	if err := q.GroundGroup([]int64{idA, idB}); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("GroundGroup = %v, want injected crash", err)
	}
	q.testCrashApply = nil
	q.log.Abandon()

	r, err := Recover(mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := stateOf(r); got != want {
		t.Errorf("recovered state diverges from the committed pair:\n got %+v\nwant %+v", got, want)
	}
}

func TestCrashBetweenSyncAndApplyCarriedEvictions(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "qdb.wal")
	mk := func() *relstore.DB { return worldDB([]int{1}, 6) }
	opts := Options{WALPath: walPath, SyncWAL: true, K: 2}

	// Reference: B's admission pushes flight 1 past k = 2 and evicts A
	// and A2; the recovered instance must land here.
	ref := mustQDB(t, mk(), Options{K: 2})
	if _, err := ref.Submit(book("A", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Submit(book("A2", 1)); err != nil {
		t.Fatal(err)
	}
	if _, errs := ref.SubmitBatch([]*txn.T{book("B", 1), book("B2", 1)}); errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	want := stateOf(ref)
	if want.pending != "[3 4]" {
		t.Fatalf("reference pending = %s, want [3 4]", want.pending)
	}

	q, err := New(mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(book("A", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(book("A2", 1)); err != nil {
		t.Fatal(err)
	}
	q.testCrashApply = func() error {
		// The admission's one batch holds both pending records and both
		// evictions; the store has neither eviction yet.
		bs := walBatches(t, walPath)
		last := bs[len(bs)-1]
		if countRecs(last, recPending) != 2 || countRecs(last, recGrounded) != 2 {
			t.Errorf("at fault point: last batch holds %d pending and %d tombstones, want 2 and 2",
				countRecs(last, recPending), countRecs(last, recGrounded))
		}
		if n := q.Store().Len("Bookings"); n != 0 {
			t.Errorf("at fault point: %d bookings applied, want 0", n)
		}
		return errInjectedCrash
	}
	_, errs := q.SubmitBatch([]*txn.T{book("B", 1), book("B2", 1)})
	if !errors.Is(errs[0], errInjectedCrash) || !errors.Is(errs[1], errInjectedCrash) {
		t.Fatalf("SubmitBatch errs = %v, want injected crash", errs)
	}
	q.testCrashApply = nil
	q.log.Abandon()

	r, err := Recover(mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := stateOf(r); got != want {
		t.Errorf("recovered state:\n got %+v\nwant %+v", got, want)
	}
}

// keyCollisionDB holds T keyed on its first column and the body
// relations that keep the transactions below in two partitions.
func keyCollisionDB() *relstore.DB {
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "T", Columns: []string{"k", "v"}, Key: []int{0}})
	db.MustCreateTable(relstore.Schema{Name: "U", Columns: []string{"x"}})
	db.MustCreateTable(relstore.Schema{Name: "SA", Columns: []string{"x"}})
	db.MustCreateTable(relstore.Schema{Name: "SB", Columns: []string{"x"}})
	for _, x := range []int{1, 2, 3} {
		db.MustInsert("SA", tup(x))
	}
	db.MustInsert("SB", tup(1))
	return db
}

// TestAbortedUnitKeepsCarriedAdmissions forces an admission's carried
// evictions to fail at apply. A's update +T(x,'a') and B's +T(1,'b')
// differ only off T's key, so they never unify and sit in two
// partitions, yet both take key 1. With k = 1, admitting A and A3 next
// to A0 evicts A0 and A, carried in the admission's pending batch; B
// grounds in the window between that batch's sync and its apply, so A's
// cached grounding collides. The unit must apply not at all (A0's
// U(1) is undone too), one batch must compensate it — the abort plus A
// and A3 recorded pending again — and recovery and a follower must skip
// the evictions while keeping the admissions.
func TestAbortedUnitKeepsCarriedAdmissions(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "qdb.wal")
	opts := Options{WALPath: walPath, SyncWAL: true, K: 1}
	q, err := New(keyCollisionDB(), opts)
	if err != nil {
		t.Fatal(err)
	}

	// A follower tailing the log one batch at a time, rebooting from a
	// checkpoint image when the leader aborts a batch it already applied.
	img, _, err := q.CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	f, err := BootReplica(img)
	if err != nil {
		t.Fatal(err)
	}
	resyncs := 0
	follow := func(mayResync bool) {
		for {
			bs, err := q.WALBatchesFrom(f.AppliedSeq(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(bs) == 0 {
				return
			}
			if _, err := f.ApplyBatches(bs); errors.Is(err, ErrReplicaDiverged) && mayResync {
				resyncs++
				img, _, err := q.CheckpointImage()
				if err != nil {
					t.Fatal(err)
				}
				if f, err = BootReplica(img); err != nil {
					t.Fatal(err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}

	a0 := txn.MustParse("+U(x) :-1 SA(x)")
	a := txn.MustParse("+T(x, 'a') :-1 SA(x)")
	a3 := txn.MustParse("+U(x) :-1 SA(x)")
	b := txn.MustParse("+T(1, 'b') :-1 SB(y)")
	if _, err := q.Submit(a0); err != nil {
		t.Fatal(err)
	}
	idB, err := q.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	follow(false)

	var atAbort string
	watch := false
	q.testCrashApply = func() error {
		q.testCrashApply = nil
		// The follower applies the unit's batch before the leader does.
		follow(false)
		if err := q.Ground(idB); err != nil {
			t.Errorf("Ground(B): %v", err)
		}
		watch = true
		return nil
	}
	q.log.Hooks.AfterAppend = func(uint64) error {
		// The next append after B's grounding is the compensation,
		// written after the failed apply and before enforceK solves.
		if watch {
			watch = false
			atAbort = tuplesSorted(q.Store(), "T") + " " + tuplesSorted(q.Store(), "U")
		}
		return nil
	}
	ids, errs := q.SubmitBatch([]*txn.T{a, a3})
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("SubmitBatch errs = %v", errs)
	}
	q.log.Hooks.AfterAppend = nil
	if want := "[(1, 'b')] []"; atAbort != want {
		t.Errorf("store after the failed unit = %s, want %s (only B's grounding)", atAbort, want)
	}

	// Exactly one compensating batch: the abort of the admission's batch
	// and the two admissions recorded pending again.
	var aborts []wal.Batch
	var target uint64
	for _, bt := range walBatches(t, walPath) {
		if n := countRecs(bt, recAbort); n > 0 {
			aborts = append(aborts, bt)
			target = binary.BigEndian.Uint64(bt.Records[0].Payload)
		}
	}
	if len(aborts) != 1 {
		t.Fatalf("%d compensating batches, want 1", len(aborts))
	}
	if n := countRecs(aborts[0], recPending); n != 2 {
		t.Errorf("compensating batch re-records %d admissions, want 2", n)
	}
	for _, bt := range walBatches(t, walPath) {
		if bt.Seq == target && (countRecs(bt, recPending) != 2 || countRecs(bt, recGrounded) != 2) {
			t.Errorf("aborted batch holds %d pending and %d tombstones, want the 2 admissions and 2 evictions",
				countRecs(bt, recPending), countRecs(bt, recGrounded))
		}
	}
	if s := q.Stats(); s.SolutionStale != 1 {
		t.Errorf("SolutionStale = %d, want 1", s.SolutionStale)
	}
	// enforceK then solved A0 and A instead: A moved off key 1.
	live := stateOfRels(q, "T", "U")
	if want := fmt.Sprintf("[(1, 'b') (2, 'a')] [(1)] [%d]", ids[1]); live != want {
		t.Errorf("live state = %s, want %s", live, want)
	}

	follow(true)
	if resyncs != 1 {
		t.Errorf("follower resynced %d times, want 1", resyncs)
	}
	mustEqualReplica(t, q, f)
	q.Close()

	r, err := Recover(keyCollisionDB(), Options{WALPath: walPath, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := stateOfRels(r, "T", "U"); got != live {
		t.Errorf("recovered state = %s, want the live %s", got, live)
	}
}

// stateOfRels digests the named relations and the pending IDs.
func stateOfRels(q *QDB, rels ...string) string {
	s := ""
	for _, rel := range rels {
		s += tuplesSorted(q.Store(), rel) + " "
	}
	return s + fmt.Sprint(q.PendingIDs())
}

// mustEqualReplica asserts the follower's store encodes byte-equal to
// the leader's and holds the same pending count.
func mustEqualReplica(t *testing.T, q *QDB, f *ReplicaState) {
	t.Helper()
	snap := q.Snapshot()
	defer snap.Release()
	var leader, follower bytes.Buffer
	if err := snap.Encode(&leader); err != nil {
		t.Fatal(err)
	}
	if err := f.EncodeState(&follower); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(leader.Bytes(), follower.Bytes()) {
		t.Fatalf("leader and follower stores diverge: %d vs %d canonical bytes", leader.Len(), follower.Len())
	}
	if f.PendingCount() != q.PendingCount() {
		t.Fatalf("follower sees %d pending, leader %d", f.PendingCount(), q.PendingCount())
	}
}

// TestBatchEncBodyMatchesFrame holds batchEnc's size accounting, which
// decides where a run splits, to the bytes the WAL writes: the frame a
// batch adds to its segment file is its length word, seq, term, record
// count, the records (body) and its checksum.
func TestBatchEncBodyMatchesFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "enc.wal")
	l, err := wal.OpenSegmented(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := func(id int64, blob string) formula.Grounding {
		return formula.Grounding{
			Txn:     &txn.T{ID: id},
			Inserts: []relstore.GroundFact{{Rel: "Bookings", Tuple: tup("u", 1, blob)}},
			Deletes: []relstore.GroundFact{{Rel: "Available", Tuple: tup(1, blob)}},
		}
	}
	gs := []formula.Grounding{g(1, "1A"), g(2, strings.Repeat("x", 300)), g(3, "3C")}
	size := func() int64 {
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path + ".0")
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	e := getBatchEnc()
	defer batchEncPool.Put(e)
	if err := e.addPending(txn.MustParse("+Bookings('u', 1, s) :-1 Available(1, s)")); err != nil {
		t.Fatal(err)
	}
	if n := e.addGroundings(gs, math.MaxInt); n != 3 || len(e.recs) != 10 {
		t.Fatalf("took %d groundings in %d records, want 3 in 10", n, len(e.recs))
	}
	before := size()
	if _, err := l.AppendBatch(0, e.recs); err != nil {
		t.Fatal(err)
	}
	if got, want := size()-before, int64(4+8+8+1+e.body+4); got != want {
		t.Fatalf("frame of %d bytes, accounting says %d", got, want)
	}

	// The split: a run takes the groundings that fit, and at least one
	// when the batch holds nothing else; a pending batch carries none
	// that would overflow it.
	one := func(gs []formula.Grounding) int {
		e := getBatchEnc()
		defer batchEncPool.Put(e)
		e.addGroundings(gs[:1], math.MaxInt)
		return e.body
	}(gs)
	e2 := getBatchEnc()
	defer batchEncPool.Put(e2)
	if n := e2.addGroundings(gs, one+batchHeaderMax); n != 1 {
		t.Errorf("a bound that fits one grounding took %d", n)
	}
	e3 := getBatchEnc()
	defer batchEncPool.Put(e3)
	if n := e3.addGroundings(gs, 1); n != 1 {
		t.Errorf("an empty batch took %d groundings past its bound, want 1", n)
	}
	e4 := getBatchEnc()
	defer batchEncPool.Put(e4)
	e4.addID(recGrounded, 9)
	if n := e4.addGroundings(gs, 1); n != 0 || len(e4.recs) != 1 {
		t.Errorf("a non-empty batch carried %d groundings past its bound (%d records)", n, len(e4.recs))
	}
}

// TestReplayRunSplitsAtTailBound drains a partition whose cached run is
// larger than the WAL tail's body bound: the run goes as two units, each
// batch stays within the bound, and recovery replays both.
func TestReplayRunSplitsAtTailBound(t *testing.T) {
	mk := func() *relstore.DB {
		db := relstore.NewDB()
		db.MustCreateTable(relstore.Schema{Name: "Ids", Columns: []string{"x"}})
		db.MustCreateTable(relstore.Schema{Name: "Big", Columns: []string{"id", "blob"}, Key: []int{0}})
		for x := 1; x <= 12; x++ {
			db.MustInsert("Ids", tup(x))
		}
		return db
	}
	walPath := filepath.Join(t.TempDir(), "qdb.wal")
	opts := Options{WALPath: walPath, K: -1}
	q, err := New(mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	blob := strings.Repeat("q", 100_000)
	for i := 0; i < 12; i++ {
		if _, err := q.Submit(txn.MustParse(fmt.Sprintf("+Big(x, '%s') :-1 Ids(x)", blob))); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	// 100 kB groundings: ten fit in 1 MiB, the other two make a second unit.
	if s := q.Stats(); s.Grounded != 12 || s.GroundUnits != 2 || s.SolutionReplays != 12 {
		t.Fatalf("%d groundings in %d units (%d replayed), want 12 in 2 (12)", s.Grounded, s.GroundUnits, s.SolutionReplays)
	}
	for _, b := range walBatches(t, walPath) {
		body := 8 + 8 + binary.MaxVarintLen64
		for _, r := range b.Records {
			body += 1 + binary.MaxVarintLen64 + len(r.Payload)
		}
		if body > unitBodyLimit {
			t.Errorf("batch %d has a body of about %d bytes, over the %d bound", b.Seq, body, unitBodyLimit)
		}
	}
	want := stateOfRels(q, "Big")
	q.Close()
	r, err := Recover(mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := stateOfRels(r, "Big"); got != want {
		t.Errorf("recovered Big differs from the live store (%d vs %d bytes of digest)", len(got), len(want))
	}
}
