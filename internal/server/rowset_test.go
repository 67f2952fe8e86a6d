package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	quantumdb "repro"
	"repro/internal/value"
)

// TestRowSetUnboundCellParity covers the one row-set shape no parsed
// query produces — a cell whose variable no atom bound: the frame
// encoder and the client decode must drop it from its row and keep
// everything else.
func TestRowSetUnboundCellParity(t *testing.T) {
	rs := &quantumdb.RowSet{
		Cols: []string{"n", "ghost", "s"},
		N:    2,
		Vals: []value.Value{
			value.NewString("it's"), {}, value.NewInt(-3),
			value.NewString(`back\slash`), value.NewString(""), value.NewInt(0),
		},
		Unbound: []bool{false, true, false, false, false, false},
	}
	b, err := appendResponse(nil, &Response{OK: true, rows: rs})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []map[string]string{
		{"n": `'it\'s'`, "s": "-3"},
		{"n": `'back\\slash'`, "ghost": "''", "s": "0"},
	}
	if !reflect.DeepEqual(got.Rows, want) {
		t.Fatalf("decoded rows %v, want %v", got.Rows, want)
	}
}

// scanServer serves one flight of n seats and returns the server and the
// whole-flight query, the shape of the benchmark's row-heavy read.
func scanServer(t testing.TB, n int) (*Server, string) {
	t.Helper()
	db, err := quantumdb.Open(quantumdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.MustCreateTable(quantumdb.Table{Name: "Available", Columns: []string{"fno", "sno"}})
	for f := 1; f <= 3; f++ {
		for i := 0; i < n; i++ {
			db.MustExec(fmt.Sprintf("+Available(%d, '%d%c')", f, i/6+1, 'A'+i%6))
		}
	}
	return New(db), "Available(2, s)"
}

// TestSnapreadEncodeAllocs: the server side of a snapshot scan — parse,
// pin, evaluate into the row set, encode into a pooled frame — allocates
// a constant number of objects per response, none per row.
func TestSnapreadEncodeAllocs(t *testing.T) {
	allocs := func(rows int) float64 {
		srv, query := scanServer(t, rows)
		req := Request{Op: "snapread", Query: query}
		return testing.AllocsPerRun(200, func() {
			resp := srv.dispatch(req)
			if resp.rows == nil || resp.rows.N != rows {
				t.Fatalf("snapread returned %+v", resp)
			}
			releaseFrame(encodeResponse(1, &resp))
		})
	}
	small, big := allocs(150), allocs(600)
	t.Logf("allocs per snapread response: %.0f at 150 rows, %.0f at 600 rows", small, big)
	if raceEnabled {
		t.Skip("allocation counts vary from run to run under the race detector")
	}
	// One object of slack: a GC between runs may empty the frame pool.
	if big > small+1 {
		t.Fatalf("allocations grow with the row count: %.0f at 150 rows, %.0f at 600", small, big)
	}
	if small > 40 {
		t.Fatalf("%.0f allocations per snapread response, want a few dozen at most", small)
	}
}

// TestDecodeRowsAllocs: the client side of the same response allocates
// one map per row and a constant number of objects besides — column
// names are shared across rows and every cell's text is a substring of
// one arena string.
func TestDecodeRowsAllocs(t *testing.T) {
	payload := func(rows int) []byte {
		rs := &quantumdb.RowSet{Cols: []string{"fno", "sno"}, N: rows}
		for i := 0; i < rows; i++ {
			rs.Vals = append(rs.Vals, value.NewInt(int64(i)), value.NewString(fmt.Sprintf("%d'A", i)))
		}
		b, err := appendResponse(nil, &Response{OK: true, rows: rs})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	allocs := func(rows int) float64 {
		p := payload(rows)
		return testing.AllocsPerRun(100, func() {
			resp, err := decodeResponse(p)
			if err != nil || len(resp.Rows) != rows {
				t.Fatalf("decode: %d rows, err %v", len(resp.Rows), err)
			}
		})
	}
	// What one two-entry map costs on this runtime.
	perMap := testing.AllocsPerRun(100, func() {
		m := make(map[string]string, 2)
		m["fno"], m["sno"] = "1", "'1A'"
		mapSink = m
	})
	small, big := allocs(150), allocs(450)
	perRow := (big - small) / 300
	t.Logf("decode: %.0f allocs at 150 rows, %.0f at 450: %.2f per row (a map alone: %.0f)", small, big, perRow, perMap)
	if perRow > perMap {
		t.Fatalf("%.2f allocations per decoded row, want the map's %.0f and nothing else", perRow, perMap)
	}
	if fixed := small - 150*perMap; fixed > 8 {
		t.Fatalf("%.0f allocations per response besides the row maps, want a handful", fixed)
	}
	resp, _ := decodeResponse(payload(2))
	if got := resp.Rows[1]["sno"]; got != `'1\'A'` {
		t.Fatalf("decoded cell %q", got)
	}
}

var mapSink map[string]string

// TestProtocolVersionMismatch: a connection that opens with anything
// but this version's preamble — another version's, or a JSON line from
// a client that predates framing — is answered with one explicit error
// line and a close, and the clients report what the server said instead
// of stalling.
func TestProtocolVersionMismatch(t *testing.T) {
	_, addr := startPipeServer(t, 0, 0, 0)
	for name, opener := range map[string][]byte{
		// A version-1 client: preamble, then a frame straight behind it.
		"version 1": append([]byte("QDB\x01"), finishFrame(appendRequest(beginFrame(nil, 1, opCodes["ping"]), &Request{Op: "ping"}))...),
		"version 2": append([]byte("QDB\x02"), finishFrame(appendRequest(beginFrame(nil, 1, opCodes["ping"]), &Request{Op: "ping"}))...),
		"JSON line": []byte(`{"op":"ping"}` + "\n"),
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		conn.SetDeadline(start.Add(5 * time.Second))
		if _, err := conn.Write(opener); err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(conn) // returns at the server's close
		conn.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(string(reply), "protocol version mismatch") || strings.Count(string(reply), "\n") != 1 {
			t.Fatalf("%s: server answered %q, want one line naming the protocol version mismatch", name, reply)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: refusal took %v", name, d)
		}
	}

	// The client side, against a server of a version yet to come that
	// refuses the same way.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			bufio.NewReader(c).Discard(len(frameMagic))
			io.WriteString(c, `{"ok":false,"err":"server: protocol version mismatch: this server speaks QDB/4"}`+"\n")
			c.Close()
		}
	}()
	start := time.Now()
	if _, err := DialPipe(l.Addr().String()); err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Fatalf("DialPipe: %v, want a protocol version mismatch", err)
	}
	if _, err := Dial(l.Addr().String()); err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Fatalf("Dial: %v, want a protocol version mismatch", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("mismatch took %v to report: the clients waited or retried", d)
	}
}
