package server

import (
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	quantumdb "repro"
	"repro/internal/replica"
)

func listenTCP(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// startWALLeader boots a WAL-backed database behind a TCP server — only
// a logged leader can ship its log.
func startWALLeader(t *testing.T) (*Client, *quantumdb.DB, string) {
	t.Helper()
	db, err := quantumdb.Open(quantumdb.Options{
		WALPath:     filepath.Join(t.TempDir(), "leader.wal"),
		WALSegments: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	l := listenTCP(t)
	srv := New(db)
	go srv.Serve(l)
	c := dialT(t, l.Addr().String())
	return c, db, l.Addr().String()
}

// TestReplicationOverTCP wires the whole network leg together: a
// follower bootstraps from a live leader through ReplicaClient, replays
// pulled batches, and a follower-mode server answers lag, snapread,
// pending, and stats from the replayed store while refusing mutations.
func TestReplicationOverTCP(t *testing.T) {
	c, db, leaderAddr := startWALLeader(t)
	seatSchema(t, c) // schema rides the bootstrap image, so create it first

	if _, err := c.Submit("-Available(1, s), +Bookings('Mickey', 1, s) :-1 Available(1, s)"); err != nil {
		t.Fatal(err)
	}
	if err := c.GroundAll(); err != nil {
		t.Fatal(err)
	}

	f := replica.NewFollower(&ReplicaClient{Addr: leaderAddr, Timeout: 5 * time.Second})
	if err := f.Bootstrap(); err != nil {
		t.Fatal(err)
	}

	// Post-bootstrap churn, including one transaction left pending so the
	// follower replays a live superposition, not just ground state.
	if _, err := c.Submit("-Available(1, s), +Bookings('Goofy', 1, s) :-1 Available(1, s)"); err != nil {
		t.Fatal(err)
	}
	if err := c.GroundAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("-Available(1, s), +Bookings('Donald', 1, s) :-1 Available(1, s)"); err != nil {
		t.Fatal(err)
	}

	idle := 0
	for rounds := 0; idle < 2; rounds++ {
		if rounds > 1000 {
			t.Fatalf("no convergence: applied %d, leader %d", f.AppliedSeq(), db.Engine().WALSeq())
		}
		n, err := f.Sync()
		if err != nil {
			t.Fatalf("sync: %v", err)
		}
		if n == 0 && f.AppliedSeq() >= db.Engine().WALSeq() {
			idle++
		}
	}

	fl := listenTCP(t)
	fsrv := NewFollower(f)
	go fsrv.Serve(fl)
	fc := dialT(t, fl.Addr().String())

	if err := fc.Ping(); err != nil {
		t.Fatal(err)
	}
	seq, applied, lag, err := fc.Lag()
	if err != nil {
		t.Fatal(err)
	}
	if lag != 0 || applied != seq || applied != db.Engine().WALSeq() {
		t.Fatalf("follower lag op: seq=%d applied=%d lag=%d (leader %d)",
			seq, applied, lag, db.Engine().WALSeq())
	}
	if _, lapplied, llag, err := c.Lag(); err != nil || lapplied == 0 || llag != 0 {
		t.Fatalf("leader lag op: applied=%d lag=%d err=%v", lapplied, llag, err)
	}

	// The follower's snapshot reads must match the leader's, byte for
	// byte on the wire.
	for _, q := range []string{"Bookings(n, 1, s)", "Available(1, s)"} {
		want, err := c.SnapRead(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fc.SnapRead(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("snapread %q diverges:\nleader   %v\nfollower %v", q, want, got)
		}
	}

	if n, err := fc.Pending(); err != nil || n != 1 {
		t.Fatalf("follower pending = %d, err=%v; want the one unground txn", n, err)
	}
	if st, err := fc.Stats(); err != nil || st.FollowerAppliedSeq == 0 || st.BatchesReplayed == 0 {
		t.Fatalf("follower stats unpopulated: %+v err=%v", st, err)
	}

	// Every mutating verb must be refused.
	if _, err := fc.Submit("-Available(1, s), +Bookings('Daisy', 1, s) :-1 Available(1, s)"); err == nil ||
		!strings.Contains(err.Error(), "read-only follower") {
		t.Fatalf("follower accepted a txn: %v", err)
	}
	if err := fc.Exec("+Available(2, '9Z')"); err == nil ||
		!strings.Contains(err.Error(), "read-only follower") {
		t.Fatalf("follower accepted an exec: %v", err)
	}
	if err := fc.GroundAll(); err == nil ||
		!strings.Contains(err.Error(), "read-only follower") {
		t.Fatalf("follower accepted a groundall: %v", err)
	}
}

// TestReplicaClientDeadLeader checks that a call against a dead address
// fails cleanly instead of hanging.
func TestReplicaClientDeadLeader(t *testing.T) {
	rc := &ReplicaClient{Addr: "127.0.0.1:1", Timeout: 500 * time.Millisecond}
	defer rc.Close()
	if _, err := rc.Pull(0, 0); err == nil {
		t.Fatal("pull against a dead leader succeeded")
	}
	if _, _, err := rc.Bootstrap(); err == nil {
		t.Fatal("bootstrap against a dead leader succeeded")
	}
}

// acceptLog records every connection a listener accepts.
type acceptLog struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *acceptLog) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *acceptLog) accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// TestReplicaClientHoldsOneConnection pins the follower's connection
// discipline: pulls reuse one connection; a call overlapping a parked
// long-poll gets a connection of its own instead of waiting behind it,
// and only one connection is held afterwards; a connection the leader
// drops costs one failed call, and the next call redials.
func TestReplicaClientHoldsOneConnection(t *testing.T) {
	db, err := quantumdb.Open(quantumdb.Options{WALPath: filepath.Join(t.TempDir(), "leader.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(quantumdb.Table{Name: "Available", Columns: []string{"fno", "sno"}}); err != nil {
		t.Fatal(err)
	}
	ln := &acceptLog{Listener: listenTCP(t)}
	srv := New(db)
	go srv.Serve(ln)
	defer srv.Shutdown(time.Second)

	rc := &ReplicaClient{Addr: ln.Addr().String(), Timeout: 5 * time.Second}
	defer rc.Close()
	_, applied, err := rc.Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	pull := func() {
		t.Helper()
		res, err := rc.Pull(applied, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range res.Batches {
			applied = b.Seq
		}
	}
	for i := 0; i < 10; i++ {
		if err := db.Exec(fmt.Sprintf("+Available(1, '%dA')", i)); err != nil {
			t.Fatal(err)
		}
		pull()
	}
	if applied != db.Engine().WALSeq() {
		t.Fatalf("pulled through %d, leader at %d", applied, db.Engine().WALSeq())
	}
	if n := ln.accepted(); n != 1 {
		t.Fatalf("bootstrap and 10 pulls used %d connections, want 1", n)
	}

	// A long-poll parks at the leader; a bootstrap meanwhile must not
	// queue behind it.
	rc.Wait = 5 * time.Second
	done := make(chan error, 1)
	go func() {
		_, err := rc.Pull(applied, 0)
		done <- err
	}()
	for srv.inflight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if _, _, err := rc.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("bootstrap waited %v behind a parked pull", waited)
	}
	if err := db.Exec("+Available(2, '1A')"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rc.Wait = 0
	pull()
	pull()
	if n := ln.accepted(); n != 2 {
		t.Fatalf("%d connections after one overlapping call, want 2", n)
	}

	// The leader drops the held connection: one call fails, the next
	// redials.
	ln.mu.Lock()
	for _, c := range ln.conns {
		c.Close()
	}
	ln.mu.Unlock()
	if _, err := rc.Pull(applied, 0); err == nil {
		t.Fatal("pull over a connection the leader closed succeeded")
	}
	pull()
	if n := ln.accepted(); n != 3 {
		t.Fatalf("%d connections after a dropped one, want 3", n)
	}
}
