package server

import (
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	quantumdb "repro"
	"repro/internal/telemetry"
)

// TestServerGracefulShutdown exercises the drain protocol: Serve
// returns ErrShuttingDown, in-flight work completes, and both new
// connections and new requests on surviving connections are refused.
func TestServerGracefulShutdown(t *testing.T) {
	db, err := quantumdb.Open(quantumdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seatSchema(t, c)
	if _, err := c.Submit("-Available(1, s), +Bookings('Mickey', 1, s) :-1 Available(1, s)"); err != nil {
		t.Fatal(err)
	}

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("Serve returned %v, want ErrShuttingDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// The listener is closed: new connections fail outright (or are
	// dropped before a response).
	if c2, err := Dial(l.Addr().String()); err == nil {
		if perr := c2.Ping(); perr == nil {
			t.Fatal("post-shutdown connection served a request")
		}
		c2.Close()
	}
	// The surviving connection is closed or refused; either way Ping
	// must not succeed.
	if err := c.Ping(); err == nil {
		t.Fatal("post-shutdown request on old connection succeeded")
	}
	// Idempotent: a second drain returns immediately.
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	// The engine survived the drain — the drained transaction grounds.
	if err := db.GroundAll(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Grounded != 1 {
		t.Fatalf("grounded = %d, want 1", st.Grounded)
	}
}

// TestServerShutdownUnderLoad drains while clients are mid-burst: every
// request either succeeds or fails cleanly (shutdown refusal or closed
// connection), and nothing hangs.
func TestServerShutdownUnderLoad(t *testing.T) {
	db, err := quantumdb.Open(quantumdb.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	go srv.Serve(l)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seatSchema(t, c)

	done := make(chan struct{})
	go func() {
		defer close(done)
		cl, err := Dial(l.Addr().String())
		if err != nil {
			return
		}
		defer cl.Close()
		for i := 0; i < 10000; i++ {
			if err := cl.Ping(); err != nil {
				return // drain refused or connection closed: expected
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("client goroutine hung through shutdown")
	}
}

// TestServerMetricsSmoke is the in-process half of CI's metrics-smoke
// job: drive every protocol verb through a live server, scrape the
// registry's HTTP handler, and validate that the exposition parses and
// carries every registered family plus nonzero op latencies.
func TestServerMetricsSmoke(t *testing.T) {
	c, db := startServer(t)
	seatSchema(t, c)
	id, err := c.Submit("-Available(1, s), +Bookings('Mickey', 1, s) :-1 Available(1, s)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("-Available(1, s), +Bookings('Minnie', 1, s) :-1 Available(1, s)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Ground(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("Bookings(Name, Fno, Sno)"); err != nil {
		t.Fatal(err)
	}
	if err := c.GroundAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pending(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	reg := db.Metrics()
	rec := httptest.NewRecorder()
	reg.Handler(db.SlowOps()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics -> %d", rec.Code)
	}
	body := rec.Body.Bytes()
	if err := telemetry.CheckExposition(body, reg.Names()); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	out := string(body)
	for _, want := range []string{
		"qdb_submitted_total 2",
		"qdb_grounded_total 2",
		"qdb_reads_total 1",
		`qdb_op_duration_seconds_count{op="submit"} 2`,
		`qdb_op_stage_duration_seconds_count{op="submit",stage="wal"} 2`,
		`qdb_server_op_duration_seconds_count{op="txn"} 2`,
		`qdb_server_op_duration_seconds_count{op="ping"} 1`,
		"qdb_uptime_seconds",
		"qdb_relstore_cow_copies_total",
		"qdb_relstore_cow_bytes_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q in:\n%s", want, out)
		}
	}
	if snap, ok := reg.FindHistogram("qdb_op_duration_seconds", `op="ground"`); !ok || snap.Count == 0 {
		t.Fatalf("ground op histogram empty (ok=%v count=%d)", ok, snap.Count)
	}
}
