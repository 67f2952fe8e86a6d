package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	quantumdb "repro"
)

// startPipeServer boots a leader with a WAL (so repl.pull long-polls
// actually park — the test suite's "slow op") and explicit data-plane
// limits; 0 keeps a knob's default.
func startPipeServer(t *testing.T, maxInflight, maxConns int, shedWait time.Duration) (*Server, string) {
	t.Helper()
	db, err := quantumdb.Open(quantumdb.Options{WALPath: filepath.Join(t.TempDir(), "qdb.wal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := New(db)
	srv.SetLimits(maxInflight, maxConns, shedWait)
	go srv.Serve(l)
	return srv, l.Addr().String()
}

// TestBinaryOutOfOrderCompletion pins the pipelining contract: a slow
// op (a parked long-poll pull) and a fast op issued after it on the
// SAME connection complete out of order — the fast response arrives
// while the slow op is still parked.
func TestBinaryOutOfOrderCompletion(t *testing.T) {
	_, addr := startPipeServer(t, 0, 0, 0)
	p, err := DialPipe(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		// Nothing is ever committed above watermark 1e9, so this parks
		// for the full long-poll window.
		p.Do(Request{Op: "repl.pull", After: 1 << 30, WaitMS: 2000})
	}()
	// Give the slow frame a head start into the server's read loop.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	resp, err := p.Do(Request{Op: "ping"})
	fast := time.Since(start)
	if err != nil || !resp.OK {
		t.Fatalf("ping: resp=%+v err=%v", resp, err)
	}
	select {
	case <-slowDone:
		t.Fatal("slow op completed before fast op: no out-of-order completion")
	default:
	}
	if fast > time.Second {
		t.Fatalf("fast op took %v: serialized behind the parked op", fast)
	}
	<-slowDone
}

// TestInflightWindowQueues proves window admission QUEUES inside the
// shed threshold: window 1, generous shedWait, a parked op holding the
// slot — the next op waits its turn and succeeds, with zero sheds.
func TestInflightWindowQueues(t *testing.T) {
	srv, addr := startPipeServer(t, 1, 0, 5*time.Second)
	p, err := DialPipe(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	go p.Do(Request{Op: "repl.pull", After: 1 << 30, WaitMS: 150})
	time.Sleep(30 * time.Millisecond)
	start := time.Now()
	resp, err := p.Do(Request{Op: "ping"})
	if err != nil || !resp.OK {
		t.Fatalf("ping: resp=%+v err=%v", resp, err)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Fatalf("ping completed in %v: window of 1 not enforced (should queue behind the parked op)", waited)
	}
	if n := srv.Sheds(); n != 0 {
		t.Fatalf("sheds = %d, want 0 (queue-wait should absorb this)", n)
	}
}

// TestInflightWindowSheds proves the backpressure edge: window 1, tiny
// shed threshold, slot held — the next op is refused with the
// structured retryable overloaded error instead of waiting.
func TestInflightWindowSheds(t *testing.T) {
	srv, addr := startPipeServer(t, 1, 0, time.Millisecond)
	p, err := DialPipe(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	go p.Do(Request{Op: "repl.pull", After: 1 << 30, WaitMS: 500})
	time.Sleep(30 * time.Millisecond)
	resp, err := p.Do(Request{Op: "ping"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !resp.Retry {
		t.Fatalf("resp = %+v, want shed (OK=false Retry=true)", resp)
	}
	if !strings.Contains(resp.Err, "overloaded") {
		t.Fatalf("shed error = %q, want overloaded", resp.Err)
	}
	if n := srv.Sheds(); n < 1 {
		t.Fatalf("sheds = %d, want >= 1", n)
	}
}

// TestClientRetriesShed proves a Response.Retry refusal is retryable by
// the ordinary Client: a server that sheds the first attempt and serves
// the second yields one successful call, two requests observed.
func TestClientRetriesShed(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var served atomic.Int64
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		magic := make([]byte, len(frameMagic))
		if _, err := io.ReadFull(conn, magic); err != nil || string(magic) != frameMagic {
			return
		}
		conn.Write([]byte(frameMagic))
		br := bufio.NewReader(conn)
		var buf, out []byte
		for {
			id, _, _, nbuf, err := readFrame(br, buf)
			buf = nbuf
			if err != nil {
				return
			}
			n := served.Add(1)
			resp := Response{OK: true}
			if n == 1 {
				resp = Response{Err: ErrOverloaded.Error(), Retry: true}
			}
			out = beginFrame(out[:0], id, 0)
			out, _ = appendResponse(out, &resp)
			out = finishFrame(out)
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()

	c, err := DialWithPolicy(l.Addr().String(), RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping through a shed: %v", err)
	}
	if n := served.Load(); n != 2 {
		t.Fatalf("server saw %d requests, want 2 (shed + retry)", n)
	}
}

// TestShedErrorSurfacesAfterBudget: a server that always sheds
// exhausts the retry budget and the overloaded error reaches the
// caller (not a hang, not a redirect loop).
func TestShedErrorSurfacesAfterBudget(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		magic := make([]byte, len(frameMagic))
		if _, err := io.ReadFull(conn, magic); err != nil {
			return
		}
		conn.Write([]byte(frameMagic))
		br := bufio.NewReader(conn)
		var buf, out []byte
		for {
			id, _, _, nbuf, err := readFrame(br, buf)
			buf = nbuf
			if err != nil {
				return
			}
			out = beginFrame(out[:0], id, 0)
			out, _ = appendResponse(out, &Response{Err: ErrOverloaded.Error(), Retry: true})
			out = finishFrame(out)
			conn.Write(out)
		}
	}()
	c, err := DialWithPolicy(l.Addr().String(), RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Ping()
	if err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("err = %v, want overloaded after budget", err)
	}
}

// TestMaxConnsRefused: connections beyond -max-conns are closed at
// accept; existing connections keep working.
func TestMaxConnsRefused(t *testing.T) {
	_, addr := startPipeServer(t, 0, 1, 0)
	p, err := DialPipe(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if resp, err := p.Do(Request{Op: "ping"}); err != nil || !resp.OK {
		t.Fatalf("first conn ping: %+v %v", resp, err)
	}
	// The second connection is accepted then immediately closed: the
	// pipe dial fails at handshake, or its first call dies.
	p2, err := DialPipe(addr)
	if err == nil {
		defer p2.Close()
		if _, err := p2.Do(Request{Op: "ping"}); err == nil {
			t.Fatal("second connection served beyond max-conns=1")
		}
	}
	// First connection unaffected.
	if resp, err := p.Do(Request{Op: "ping"}); err != nil || !resp.OK {
		t.Fatalf("first conn after refusal: %+v %v", resp, err)
	}
}

// TestSubmitBatchOverWire drives the batch verb end to end over BOTH
// protocols: aligned ids/errs, per-member rejection isolation, engine
// state advanced once per accept.
func TestSubmitBatchOverWire(t *testing.T) {
	for _, proto := range []Proto{ProtoBinary, ProtoJSON} {
		name := "binary"
		if proto == ProtoJSON {
			name = "json"
		}
		t.Run(name, func(t *testing.T) {
			c, _ := startServerProto(t, proto)
			seatSchema(t, c)
			txns := []string{
				"-Available(1, s), +Bookings('A', 1, s) :-1 Available(1, s)",
				"bogus ):(",
				"-Available(1, '9Z'), +Bookings('X', 1, '9Z') :-1 Available(1, '9Z')",
				"-Available(1, s), +Bookings('B', 1, s) :-1 Available(1, s)",
			}
			ids, errs, err := c.SubmitBatch(txns)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(txns) || len(errs) != len(txns) {
				t.Fatalf("lengths: ids=%d errs=%d", len(ids), len(errs))
			}
			for _, i := range []int{0, 3} {
				if errs[i] != nil || ids[i] == 0 {
					t.Fatalf("slot %d: id=%d err=%v", i, ids[i], errs[i])
				}
			}
			for _, i := range []int{1, 2} {
				if errs[i] == nil {
					t.Fatalf("slot %d: expected error", i)
				}
			}
			if n, _ := c.Pending(); n != 2 {
				t.Fatalf("pending = %d, want 2", n)
			}
		})
	}
}

// startServerProto is startServer with a protocol choice for the
// returned client.
func startServerProto(t *testing.T, proto Proto) (*Client, *quantumdb.DB) {
	t.Helper()
	db, err := quantumdb.Open(quantumdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := New(db)
	go srv.Serve(l)
	c, err := DialProto(l.Addr().String(), proto, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, db
}

// TestProtocolRowParity: the same read answered over binary frames and
// JSON lines yields identical quoted rows — the cross-protocol invariant
// the follower diff harness depends on. The binary side decodes a
// columnar row set, the JSON side renders maps from it server-side; the
// queries cover ints, strings that need escaping, several columns, an
// empty result, and a variable-free query (no columns, one row).
func TestProtocolRowParity(t *testing.T) {
	db, err := quantumdb.Open(quantumdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go New(db).Serve(l)
	bc, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	jc, err := DialJSON(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	seatSchema(t, bc)
	if _, err := bc.Submit("-Available(1, s), +Bookings('Mickey', 1, s) :-1 Available(1, s)"); err != nil {
		t.Fatal(err)
	}
	if err := bc.Exec(`+Bookings('O\'Hara \\ "Zoë"', 2, '9Z'), +Bookings('', -7, '')`); err != nil {
		t.Fatal(err)
	}
	if err := bc.GroundAll(); err != nil { // extensional from here: read and snapread agree
		t.Fatal(err)
	}
	for _, query := range []string{
		"Available(1, s)",
		"Available(f, s)",
		"Bookings(n, f, s)",
		"Adjacent(f, a, b), Available(f, b)",
		"Available(99, s)",     // empty result
		"Available(1, '1B')",   // no variables: no columns, one row
		"Available(1, 'nope')", // no variables, no row
	} {
		snap := db.Snapshot()
		embedded, err := snap.Query(query)
		snap.Release()
		if err != nil {
			t.Fatal(err)
		}
		var want []map[string]string
		for _, row := range embedded {
			m := map[string]string{}
			for k, v := range row {
				m[k] = v.Quoted()
			}
			want = append(want, m)
		}
		for _, op := range []string{"snapread", "read"} {
			bresp, err := bc.roundTrip(Request{Op: op, Query: query})
			if err != nil {
				t.Fatalf("%s %s over binary: %v", op, query, err)
			}
			jresp, err := jc.roundTrip(Request{Op: op, Query: query})
			if err != nil {
				t.Fatalf("%s %s over JSON: %v", op, query, err)
			}
			if !reflect.DeepEqual(bresp.Rows, jresp.Rows) {
				t.Fatalf("%s %s: row parity broken:\nbinary: %v\njson:   %v", op, query, bresp.Rows, jresp.Rows)
			}
			if !reflect.DeepEqual(bresp.Rows, want) {
				t.Fatalf("%s %s: wire rows %v, embedded rows %v", op, query, bresp.Rows, want)
			}
		}
	}
}

// TestPipelinedStress hammers one server with 8 pipelined connections
// running mixed submit/ground/read traffic concurrently; run under
// -race in CI, it is the data plane's interleaving torture test.
func TestPipelinedStress(t *testing.T) {
	c, _ := startServerProto(t, ProtoBinary)
	if err := c.CreateTable(TableSpec{Name: "Slot", Columns: []string{"n"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(TableSpec{Name: "Noted", Columns: []string{"n"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec("+Slot(1), +Slot(2), +Slot(3), +Slot(4)"); err != nil {
		t.Fatal(err)
	}
	addr := c.Addr()

	const conns = 8
	const perConn = 4 // concurrent issuers per connection
	iters := 30
	if testing.Short() {
		iters = 8
	}
	var seq atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, conns*perConn)
	for ci := 0; ci < conns; ci++ {
		p, err := DialPipe(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for gi := 0; gi < perConn; gi++ {
			wg.Add(1)
			go func(p *PipeClient, lane int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					var resp Response
					var err error
					switch lane % 4 {
					case 0: // submit
						n := seq.Add(1)
						resp, err = p.Do(Request{Op: "txn",
							Txn: fmt.Sprintf("+Noted(%d) :-1 Slot(s)", n)})
					case 1: // collapsing read
						resp, err = p.Do(Request{Op: "read", Query: "Noted(x)"})
					case 2: // ground whatever is pending
						resp, err = p.Do(Request{Op: "groundall"})
					case 3: // snapshot read + pending
						resp, err = p.Do(Request{Op: "snapread", Query: "Slot(s)"})
					}
					if err != nil {
						errc <- fmt.Errorf("lane %d iter %d: %v", lane, i, err)
						return
					}
					if !resp.OK && !resp.Retry {
						errc <- fmt.Errorf("lane %d iter %d: server refusal %q", lane, i, resp.Err)
						return
					}
				}
			}(p, ci*perConn+gi)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The engine must still be coherent: a final groundall and read.
	if err := c.GroundAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("Noted(x)"); err != nil {
		t.Fatal(err)
	}
}

// TestJSONProtocolStillServed is the fallback guard: a JSON-lines
// client (no magic preamble) gets the full verb set on the same port
// binary clients use.
func TestJSONProtocolStillServed(t *testing.T) {
	c, _ := startServerProto(t, ProtoJSON)
	seatSchema(t, c)
	id, err := c.Submit("-Available(1, s), +Bookings('Mickey', 1, s) :-1 Available(1, s)")
	if err != nil || id == 0 {
		t.Fatalf("submit over JSON: id=%d err=%v", id, err)
	}
	rows, err := c.Query("Bookings('Mickey', 1, s)")
	if err != nil || len(rows) != 1 {
		t.Fatalf("query over JSON: rows=%v err=%v", rows, err)
	}
	if n, _ := c.Pending(); n != 0 {
		t.Fatalf("pending = %d", n)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
}

// TestShedIsRetryableAgainstRealServer wires the whole loop: a real
// server with window 1 and an aggressive shed threshold, a parked slow
// op, and an ordinary Client issuing a call on a SECOND connection —
// plus a pipelined shed retried manually, mirroring what the load
// generator does.
func TestShedRetryLoopAgainstRealServer(t *testing.T) {
	srv, addr := startPipeServer(t, 1, 0, time.Millisecond)
	p, err := DialPipe(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	go p.Do(Request{Op: "repl.pull", After: 1 << 30, WaitMS: 400})
	time.Sleep(30 * time.Millisecond)

	// Manual retry loop over the pipe: shed, back off, eventually land
	// (the parked op releases its slot after 400ms).
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := p.Do(Request{Op: "ping"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK {
			break
		}
		if !resp.Retry {
			t.Fatalf("non-retryable refusal: %q", resp.Err)
		}
		if time.Now().After(deadline) {
			t.Fatal("shed retry loop never landed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Sheds() == 0 {
		t.Fatal("expected at least one shed")
	}
}
