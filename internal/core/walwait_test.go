package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// Tests for the window between an admission's or a blind write's WAL
// append and the end of its wait for durability. Each drives the window
// deterministically: a hook holds the next appended batch in its Wait,
// after its fsync, until the test releases it.

// holdNextWait makes the next batch appended to q's log block in its
// Wait until release is called; held delivers its sequence number once
// it blocks. Call before starting the operation to hold.
func holdNextWait(q *QDB) (held <-chan uint64, release func()) {
	var target atomic.Uint64
	var armed atomic.Bool
	armed.Store(true)
	h := make(chan uint64, 1)
	rel := make(chan struct{})
	q.log.Hooks.AfterAppend = func(seq uint64) error {
		if armed.CompareAndSwap(true, false) {
			target.Store(seq)
		}
		return nil
	}
	q.log.Hooks.AfterSync = func(seq uint64) error {
		if seq == target.Load() {
			h <- seq
			<-rel
		}
		return nil
	}
	return h, func() { close(rel) }
}

// notYet fails the test if any of chs delivers within a short grace
// period: the operations behind them must still be blocked.
func notYet(t *testing.T, what string, chs ...<-chan error) {
	t.Helper()
	deadline := time.After(50 * time.Millisecond)
	for {
		for _, ch := range chs {
			select {
			case err := <-ch:
				t.Fatalf("%s returned (%v) while the held batch waits", what, err)
			default:
			}
		}
		select {
		case <-deadline:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func submitAsync(q *QDB, user string, f int) <-chan error {
	ch := make(chan error, 1)
	go func() {
		_, err := q.Submit(book(user, f))
		ch <- err
	}()
	return ch
}

// TestAdmitMuFreeDuringWait: while one admission waits for its fsync it
// holds its partition's shard but not admitMu. A Submit on another flight
// admits meanwhile; a Submit and a collapsing Read on the same flight
// wait until the held batch is durable.
func TestAdmitMuFreeDuringWait(t *testing.T) {
	q := mustQDB(t, worldDB([]int{1, 2}, 6), Options{
		WALPath: filepath.Join(t.TempDir(), "qdb.wal"), SyncWAL: true,
	})
	held, release := holdNextWait(q)
	first := submitAsync(q, "A", 1)
	<-held
	if _, err := q.Submit(book("B", 2)); err != nil {
		t.Fatalf("Submit on another flight while A waits: %v", err)
	}
	same := submitAsync(q, "C", 1)
	read := make(chan error, 1)
	go func() {
		_, err := q.Read(seatQuery(1))
		read <- err
	}()
	notYet(t, "an operation on A's flight", first, same, read)
	release()
	for _, ch := range []<-chan error{first, same, read} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if bookingsOf(q, "A") != 1 {
		t.Fatal("the collapsing read grounded nothing")
	}
}

// TestCrashMergingAdmissionAcrossSegments: two partitions live on
// different WAL segments and a third admission merges them, logging to
// the first partition's segment while the second partition's batch is
// still waiting for its fsync on the other. The merge cannot append
// before that batch is durable (it blocks on the partition's shard), so
// a crash between the merge's Append and its Wait — or after its fsync —
// leaves a log that recovers, with readmit accepting every record, to
// the fault-free reference.
func TestCrashMergingAdmissionAcrossSegments(t *testing.T) {
	mk := func() *relstore.DB { return worldDB([]int{1, 2}, 6) }
	for _, at := range []string{"append", "sync"} {
		t.Run(at, func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "qdb.wal")
			opts := Options{WALPath: walPath, SyncWAL: true, WALSegments: 2}
			q, err := New(mk(), opts)
			if err != nil {
				t.Fatal(err)
			}
			// A partition's batches log to its own segment, its first
			// one included: 0 for flight 1's partition, 1 for flight 2's.
			for _, tx := range []*txn.T{book("A", 1), book("B0", 2)} {
				if _, err := q.Submit(tx); err != nil {
					t.Fatal(err)
				}
			}
			held, release := holdNextWait(q)
			b := submitAsync(q, "B", 2)
			seqB := <-held
			merge := make(chan error, 1)
			go func() {
				_, err := q.Submit(bookBoth("M"))
				merge <- err
			}()
			notYet(t, "the merging admission", merge)
			if got := q.log.Seq(); got != seqB {
				t.Fatalf("log seq = %d while B waits, want %d: the merge appended before B was durable", got, seqB)
			}
			// The merge's batch is the next one: fail it at the chosen point.
			q.log.Hooks.AfterAppend = func(seq uint64) error {
				if at == "append" && seq == seqB+1 {
					return errInjectedCrash
				}
				return nil
			}
			hold := q.log.Hooks.AfterSync
			q.log.Hooks.AfterSync = func(seq uint64) error {
				if at == "sync" && seq == seqB+1 {
					return errInjectedCrash
				}
				return hold(seq)
			}
			release()
			if err := <-b; err != nil {
				t.Fatal(err)
			}
			if err := <-merge; !errors.Is(err, errInjectedCrash) {
				t.Fatalf("merging Submit = %v, want injected crash", err)
			}
			st := q.LogStats()
			if st.Appends[0] != 2 || st.Appends[1] != 2 {
				t.Fatalf("appends per segment = %v, want [2 2] (A and the merge on 0, B0 and B on 1)", st.Appends)
			}
			if ids := fmt.Sprint(q.PendingIDs()); ids != "[1 2 3]" {
				t.Fatalf("live pending after the failed merge = %s, want [1 2 3]", ids)
			}
			q.log.Abandon()

			ref := mustQDB(t, mk(), Options{})
			for _, tx := range []*txn.T{book("A", 1), book("B0", 2), book("B", 2)} {
				if _, err := ref.Submit(tx); err != nil {
					t.Fatal(err)
				}
			}
			if at == "sync" {
				// The merge's batch was fsynced before the crash: it is
				// committed, as TestCrashAfterSync's batches are.
				if _, err := ref.Submit(bookBoth("M")); err != nil {
					t.Fatal(err)
				}
			}
			r, err := Recover(mk(), opts)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer r.Close()
			if got, want := stateOf(r), stateOf(ref); got != want {
				t.Errorf("recovered state:\n got %+v\nwant %+v", got, want)
			}
			if err := r.GroundAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// bookBoth books one seat on each of flights 1 and 2: its atoms unify
// with both flights' partitions, so admitting it merges them.
func bookBoth(user string) *txn.T {
	t := txn.MustParse(fmt.Sprintf(
		"-Available(1, s), -Available(2, r), +Bookings('%s', 1, s), +Bookings('%s', 2, r) :-1 Available(1, s), Available(2, r)",
		user, user))
	t.Tag = user
	return t
}

// TestFailedWaitUninstalls: an admission whose WAL wait fails is
// installed but not durable, and is taken back out — from the pending
// set, the partition and Stats.Accepted — while a merge it made stays.
// The flight then admits again and grounds to the expected seats.
func TestFailedWaitUninstalls(t *testing.T) {
	q := mustQDB(t, worldDB([]int{1, 2, 3}, 3), Options{
		WALPath: filepath.Join(t.TempDir(), "qdb.wal"), SyncWAL: true, K: -1,
	})
	for _, f := range []int{1, 2} {
		if _, err := q.Submit(book(fmt.Sprintf("u%d", f), f)); err != nil {
			t.Fatal(err)
		}
	}
	failNext := func() {
		var target atomic.Uint64
		q.log.Hooks.AfterAppend = func(seq uint64) error {
			target.CompareAndSwap(0, seq)
			return nil
		}
		q.log.Hooks.AfterSync = func(seq uint64) error {
			if seq == target.Load() {
				return errInjectedCrash
			}
			return nil
		}
	}
	accepted := q.Stats().Accepted
	// A merging admission and one on a flight with nothing pending.
	for _, tx := range []*txn.T{bookBoth("M"), book("N", 3)} {
		failNext()
		if _, err := q.Submit(tx); !errors.Is(err, errInjectedCrash) {
			t.Fatalf("Submit(%s) = %v, want the wait's error", tx.Tag, err)
		}
	}
	q.log.Hooks = wal.Hooks{}
	if got := fmt.Sprint(q.PendingIDs()); got != "[1 2]" {
		t.Fatalf("pending after failed waits = %s, want [1 2]", got)
	}
	if got := q.Stats().Accepted; got != accepted {
		t.Fatalf("Accepted = %d after failed waits, want %d", got, accepted)
	}
	if got := fmt.Sprint(q.Partitions()); got != "[2]" {
		t.Fatalf("partitions = %s, want [2] (the merge is kept, N's partition retired)", got)
	}
	for _, tx := range []*txn.T{bookBoth("M2"), book("N2", 3)} {
		if _, err := q.Submit(tx); err != nil {
			t.Fatalf("Submit(%s) after the failed wait: %v", tx.Tag, err)
		}
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"u1": 1, "u2": 1, "M2": 2, "N2": 1, "M": 0, "N": 0} {
		if got := bookingsOf(q, name); got != n {
			t.Errorf("%s holds %d seats, want %d", name, got, n)
		}
	}
}

// bookingsOf counts name's rows in Bookings.
func bookingsOf(q *QDB, name string) int {
	n := 0
	for _, row := range q.Store().All("Bookings") {
		if row[0] == value.NewString(name) {
			n++
		}
	}
	return n
}

// TestWriteInFlight: while a blind write waits for its fsync, an
// admission its fact unifies with does not publish a decision made
// without it — here the written seat is the flight's only one, so the
// admission is accepted only because it waited — while an admission on
// another flight publishes. A checkpoint started meanwhile completes
// only after the write's apply, and the image alone holds the write.
func TestWriteInFlight(t *testing.T) {
	dir := t.TempDir()
	opts := Options{WALPath: filepath.Join(dir, "qdb.wal"), SyncWAL: true}
	ckpt := filepath.Join(dir, "qdb.ckpt")
	q, err := New(worldDB([]int{1, 2}, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	seat := []relstore.GroundFact{{Rel: "Available", Tuple: tup(9, "9Z")}}
	held, release := holdNextWait(q)
	write := make(chan error, 1)
	go func() { write <- q.Write(seat, nil) }()
	<-held
	if _, err := q.Submit(book("B", 2)); err != nil {
		t.Fatalf("non-unifying Submit while the write waits: %v", err)
	}
	unifying := submitAsync(q, "N", 9)
	checkpoint := make(chan error, 1)
	go func() { checkpoint <- q.Checkpoint(ckpt) }()
	notYet(t, "the unifying Submit or the Checkpoint", unifying, checkpoint, write)
	if q.Store().Contains("Available", tup(9, "9Z")) {
		t.Fatal("the write applied before its batch was durable")
	}
	release()
	for what, ch := range map[string]<-chan error{"Write": write, "unifying Submit": unifying, "Checkpoint": checkpoint} {
		if err := <-ch; err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	q.log.Abandon()

	// The image alone, over an empty log, holds the write: the cut waited
	// for its apply.
	alone, err := RecoverCheckpoint(ckpt, Options{WALPath: filepath.Join(dir, "empty.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer alone.Close()
	withLog, err := RecoverCheckpoint(ckpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer withLog.Close()
	for _, r := range []*QDB{alone, withLog} {
		if !r.Store().Contains("Available", tup(9, "9Z")) {
			t.Fatal("recovered state lost the in-flight write")
		}
	}
	if got := fmt.Sprint(withLog.PendingIDs()); got != "[1 2]" {
		t.Fatalf("recovered pending = %s, want [1 2] (B and N)", got)
	}
}

// TestWriteWaitsForInFlightWriteOnItsRelation: a blind write's
// structural check must see an earlier write on the same relation that
// is still waiting for its fsync. The second write, which reuses the
// first one's key, waits for it and is then refused as invalid before
// anything of it is logged.
func TestWriteWaitsForInFlightWriteOnItsRelation(t *testing.T) {
	q := mustQDB(t, worldDB([]int{1}, 3), Options{
		WALPath: filepath.Join(t.TempDir(), "qdb.wal"), SyncWAL: true,
	})
	held, release := holdNextWait(q)
	first := make(chan error, 1)
	go func() {
		first <- q.Write([]relstore.GroundFact{{Rel: "Bookings", Tuple: tup("X", 1, "9Z")}}, nil)
	}()
	<-held
	second := make(chan error, 1)
	go func() {
		second <- q.Write([]relstore.GroundFact{{Rel: "Bookings", Tuple: tup("Y", 1, "9Z")}}, nil)
	}()
	notYet(t, "a write on the in-flight write's relation", second)
	appends := q.LogStats().Appends[0]
	release()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	err := <-second
	if err == nil || !strings.Contains(err.Error(), "invalid write") {
		t.Fatalf("second write = %v, want it refused as invalid (duplicate key)", err)
	}
	if got := q.LogStats().Appends[0]; got != appends {
		t.Fatalf("appends %d -> %d: the refused write was logged", appends, got)
	}
}

// TestWriteOnAnotherKeyPassesInFlightWrite: a blind write waits only for
// in-flight writes on its keys. While one Bookings write waits for its
// fsync, a Bookings write on another seat completes.
func TestWriteOnAnotherKeyPassesInFlightWrite(t *testing.T) {
	q := mustQDB(t, worldDB([]int{1}, 3), Options{
		WALPath: filepath.Join(t.TempDir(), "qdb.wal"), SyncWAL: true,
	})
	held, release := holdNextWait(q)
	first := make(chan error, 1)
	go func() {
		first <- q.Write([]relstore.GroundFact{{Rel: "Bookings", Tuple: tup("X", 1, "9Z")}}, nil)
	}()
	<-held
	second := make(chan error, 1)
	go func() {
		second <- q.Write([]relstore.GroundFact{{Rel: "Bookings", Tuple: tup("Y", 1, "9Y")}}, nil)
	}()
	select {
	case err := <-second:
		if err != nil {
			t.Fatalf("write on another key while the first waits: %v", err)
		}
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("a write on another key waited for the in-flight write")
	}
	if q.Store().Contains("Bookings", tup("X", 1, "9Z")) {
		t.Fatal("the held write applied before its batch was durable")
	}
	release()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

// TestOrphanWriteLeavesNoPartition: a blind write no pending transaction
// unifies with gets a fresh home for its wait and leaves nothing behind:
// the partitions are as before, and once everything is grounded the
// registry and the overlap index are empty.
func TestOrphanWriteLeavesNoPartition(t *testing.T) {
	q := mustQDB(t, worldDB([]int{1, 2}, 3), Options{})
	if _, err := q.Submit(book("A", 1)); err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprint(q.Partitions())
	if err := q.Write([]relstore.GroundFact{{Rel: "Available", Tuple: tup(9, "9Z")}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(q.Partitions()); got != before {
		t.Fatalf("partitions after the orphan write = %s, want %s", got, before)
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	q.mu.Lock()
	parts, rels := len(q.parts), len(q.idx.rel)
	q.mu.Unlock()
	if parts != 0 || rels != 0 {
		t.Fatalf("after GroundAll: %d partitions registered, %d relations indexed, want none", parts, rels)
	}
}

// TestBlindWriteLogsToItsPartitionSegment: a blind write logs to its
// home's segment — the first partition it affects, or the fresh one it
// gets when it affects none — not to segment 0.
func TestBlindWriteLogsToItsPartitionSegment(t *testing.T) {
	q := mustQDB(t, worldDB([]int{1, 2, 3}, 3), Options{
		WALPath: filepath.Join(t.TempDir(), "qdb.wal"), SyncWAL: true, WALSegments: 2,
	})
	// Partitions 0, 1 and 2: flights 1, 2 and 3.
	for f := 1; f <= 3; f++ {
		if _, err := q.Submit(book(fmt.Sprintf("u%d", f), f)); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []struct {
		what string
		seat relstore.GroundFact
	}{
		{"a seat on flight 2 (partition 1)", relstore.GroundFact{Rel: "Available", Tuple: tup(2, "9Z")}},
		{"an orphan seat (fresh partition 3)", relstore.GroundFact{Rel: "Available", Tuple: tup(9, "9Z")}},
	} {
		before := slices.Clone(q.LogStats().Appends)
		if err := q.Write([]relstore.GroundFact{w.seat}, nil); err != nil {
			t.Fatal(err)
		}
		after := q.LogStats().Appends
		if after[0] != before[0] || after[1] != before[1]+1 {
			t.Errorf("%s: appends per segment %v -> %v, want one more on segment 1", w.what, before, after)
		}
	}
}

// TestWriteBetweenDecideAndPublish: an optimistic admission decided
// before a blind write does not publish after the write applied. The
// write deletes the flight's one free seat between the admission's
// decision and its revalidation; the admission conflicts, is decided
// again without the seat and rejected, and grounding everything finds
// every pending transaction a grounding.
func TestWriteBetweenDecideAndPublish(t *testing.T) {
	q := mustQDB(t, worldDB([]int{1}, 1), Options{})
	var werr error
	written := false
	q.testAdmitDecided = func() {
		if !written {
			written = true
			werr = q.Write(nil, []relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "1A")}})
		}
	}
	_, err := q.Submit(book("A", 1))
	if werr != nil {
		t.Fatalf("write between decision and revalidation: %v", werr)
	}
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("Submit = %v, want ErrRejected (its seat was written away)", err)
	}
	if got := q.Stats().AdmissionConflicts; got != 1 {
		t.Errorf("AdmissionConflicts = %d, want 1", got)
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteWaitsForItsShardWithoutAdmitMu: a blind write whose partition
// is held through another batch's wait blocks on that shard without
// holding admitMu. While a flight-1 admission waits for its fsync and a
// flight-1 write waits behind it, a flight-2 Submit admits; once the
// batch is durable the write and the held admission both succeed.
func TestWriteWaitsForItsShardWithoutAdmitMu(t *testing.T) {
	q := mustQDB(t, worldDB([]int{1, 2}, 3), Options{
		WALPath: filepath.Join(t.TempDir(), "qdb.wal"), SyncWAL: true,
	})
	held, release := holdNextWait(q)
	first := submitAsync(q, "A", 1)
	<-held
	write := make(chan error, 1)
	go func() {
		write <- q.Write([]relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "9Z")}}, nil)
	}()
	notYet(t, "a write on the held flight", write)
	other := submitAsync(q, "B", 2)
	select {
	case err := <-other:
		if err != nil {
			t.Fatalf("Submit on flight 2 while the write waits: %v", err)
		}
	case <-time.After(2 * time.Second):
		release()
		t.Fatal("a Submit on flight 2 waited for a write blocked on flight 1's shard")
	}
	release()
	for what, ch := range map[string]<-chan error{"Write": write, "held Submit": first} {
		if err := <-ch; err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	if !q.Store().Contains("Available", tup(1, "9Z")) {
		t.Fatal("the write's seat is not in the store")
	}
}

// TestNothingWaitsUnderAdmitMu: whatever waits for a shard held through
// another batch's wait does so without admitMu, so a Submit on another
// flight goes on meanwhile. A flight-1 batch is held in its Wait, and one
// caller waits behind it: an optimistic admission decided before that
// batch created the flight's partition, a serial admission, or a
// checkpoint. A flight-2 Submit must return; once the batch is durable
// every call succeeds and everything grounds.
func TestNothingWaitsUnderAdmitMu(t *testing.T) {
	for _, tc := range []struct {
		name   string
		serial bool
		// behind holds a flight-1 batch in its wait (held) and starts the
		// caller that waits behind it; it returns every call in flight.
		behind func(q *QDB, held <-chan uint64, ckpt string) []<-chan error
	}{
		{"optimistic", false, func(q *QDB, held <-chan uint64, ckpt string) []<-chan error {
			var fired atomic.Bool
			inner := make(chan error, 1)
			decided := make(chan struct{})
			q.testAdmitDecided = func() {
				if fired.CompareAndSwap(false, true) {
					go func() {
						_, err := q.Submit(book("A", 1))
						inner <- err
					}()
					<-held
					close(decided)
				}
			}
			outer := submitAsync(q, "B", 1)
			<-decided
			return []<-chan error{inner, outer}
		}},
		{"serial", true, func(q *QDB, held <-chan uint64, ckpt string) []<-chan error {
			first := submitAsync(q, "A", 1)
			<-held
			return []<-chan error{first, submitAsync(q, "B", 1)}
		}},
		{"checkpoint", false, func(q *QDB, held <-chan uint64, ckpt string) []<-chan error {
			first := submitAsync(q, "A", 1)
			<-held
			cut := make(chan error, 1)
			go func() { cut <- q.Checkpoint(ckpt) }()
			return []<-chan error{first, cut}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			q := mustQDB(t, worldDB([]int{1, 2}, 3), Options{
				WALPath: filepath.Join(dir, "qdb.wal"), SyncWAL: true, SerialAdmission: tc.serial,
			})
			held, release := holdNextWait(q)
			calls := tc.behind(q, held, filepath.Join(dir, "qdb.ckpt"))
			notYet(t, "a call on the held flight", calls...)
			other := submitAsync(q, "C", 2)
			select {
			case err := <-other:
				if err != nil {
					t.Fatalf("Submit on flight 2: %v", err)
				}
			case <-time.After(2 * time.Second):
				release()
				t.Fatal("a Submit on flight 2 waited behind a call blocked on flight 1's shard")
			}
			release()
			for _, ch := range calls {
				if err := <-ch; err != nil {
					t.Fatal(err)
				}
			}
			if err := q.GroundAll(); err != nil {
				t.Fatal(err)
			}
			if n := q.PendingCount(); n != 0 {
				t.Fatalf("%d transactions pending after GroundAll", n)
			}
		})
	}
}

// TestCheckpointCutCannotStarve: the cut waits for shards without
// admitMu, so admissions that create fresh partitions go on while it
// waits, and each may extend the set it must hold. Two clients admit on
// flights that have no partition yet while 20 checkpoints run; the
// checkpoints finish, and recovery from the last equals the live state.
func TestCheckpointCutCannotStarve(t *testing.T) {
	const nFlights = 400
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "qdb.ckpt")
	opts := Options{WALPath: filepath.Join(dir, "qdb.wal"), SyncWAL: true}
	flights := make([]int, nFlights)
	for i := range flights {
		flights[i] = i + 1
	}
	q, err := New(worldDB(flights, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var clients sync.WaitGroup
	for c := 1; c <= 2; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for f := c; f <= nFlights; f += 2 {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := q.Submit(book(fmt.Sprint("u", f), f)); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}()
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := q.Checkpoint(ckpt); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		close(stop)
		t.Fatal("20 checkpoints did not finish in 30 s beside two admitting clients")
	}
	close(stop)
	clients.Wait()
	want := stateOf(q)
	q.Close()
	r, err := RecoverCheckpoint(ckpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := stateOf(r); got != want {
		t.Fatalf("recovered state:\n got %+v\nwant %+v", got, want)
	}
}
