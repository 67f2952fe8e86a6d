package quantumdb_test

import (
	"fmt"
	"net"
	"os"
	"testing"

	quantumdb "repro"
	"repro/internal/server"
)

// The row plane's allocation ratchet, companion to TestFig7AllocRatchet
// (ratchet_test.go; this one sits in the external test package because it
// needs the server, which imports the package under test).
//
// snapreadAllocCeiling and snapreadBytesCeiling bound one 150-row
// snapshot scan round trip over the binary protocol, both sides of the
// socket. History: per-row Subst, Row and client maps with per-cell
// strings ~1400 allocs and ~330 KB; the columnar row plane ~340 allocs
// and ~62 KB, of which 300 allocs are the client's one map per row. The
// ceilings carry ~15% headroom — lower them when a PR durably improves
// the numbers, never raise them to paper over a regression.
const (
	snapreadAllocCeiling = 400
	snapreadBytesCeiling = 72_000
)

// snapreadRows is one flight of the rowscan world (150 seats).
const snapreadRows = 150

// dialSnapread serves three flights of snapreadRows seats each from an
// in-process server and returns one pipelined binary connection to it.
// Everything is torn down when tb ends.
func dialSnapread(tb testing.TB) *server.PipeClient {
	tb.Helper()
	db, err := quantumdb.Open(quantumdb.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	if err := db.CreateTable(quantumdb.Table{Name: "Available", Columns: []string{"fno", "sno"}}); err != nil {
		tb.Fatal(err)
	}
	for f := 1; f <= 3; f++ {
		for i := 0; i < snapreadRows; i++ {
			if err := db.Exec(fmt.Sprintf("+Available(%d, '%d%c')", f, i/6+1, 'A'+i%6)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	go server.New(db).Serve(ln)
	pipe, err := server.DialPipe(ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pipe.Close() })
	return pipe
}

// snapreadLoop is the row-heavy read the repository benchmark's
// rowscan_wire workload is made of, in isolation: a whole-flight
// snapshot scan, b.N times. Each is a full round trip — request frame,
// parse, pin, scan into the row set, response frame, client decode into
// row maps — so its bytes/op and allocs/op are the wire path's.
func snapreadLoop(pipe *server.PipeClient) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := pipe.Do(server.Request{Op: "snapread", Query: "Available(2, s)"})
			if err != nil {
				b.Fatal(err)
			}
			if !resp.OK || len(resp.Rows) != snapreadRows {
				b.Fatalf("snapread: ok=%v err=%q, %d rows, want %d", resp.OK, resp.Err, len(resp.Rows), snapreadRows)
			}
		}
	}
}

// BenchmarkSnapreadWire is one 150-row snapshot scan round trip over the
// binary protocol: watch B/op and allocs/op — the client's one map per
// row is what is left of them.
func BenchmarkSnapreadWire(b *testing.B) {
	b.Run(fmt.Sprintf("rows=%d", snapreadRows), func(b *testing.B) {
		snapreadLoop(dialSnapread(b))(b)
	})
}

// TestSnapreadAllocRatchet fails when the row-heavy read's round trip
// regresses past the ratchet. Opt-in via RATCHET=1, like its companion.
func TestSnapreadAllocRatchet(t *testing.T) {
	if os.Getenv("RATCHET") == "" {
		t.Skip("set RATCHET=1 to run the allocation ratchet")
	}
	res := testing.Benchmark(snapreadLoop(dialSnapread(t)))
	t.Logf("%d-row snapread round trip: %d allocs/op, %d B/op over %d runs",
		snapreadRows, res.AllocsPerOp(), res.AllocedBytesPerOp(), res.N)
	if a := res.AllocsPerOp(); a > snapreadAllocCeiling {
		t.Fatalf("snapread round trip allocs/op = %d, ratchet ceiling %d", a, snapreadAllocCeiling)
	}
	if b := res.AllocedBytesPerOp(); b > snapreadBytesCeiling {
		t.Fatalf("snapread round trip B/op = %d, ratchet ceiling %d", b, snapreadBytesCeiling)
	}
}
