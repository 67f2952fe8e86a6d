package serverload

import (
	"fmt"
	"net"

	quantumdb "repro"
	"repro/internal/server"
)

// SnapreadWire is the row-heavy read the repository benchmark's
// rowscan_wire workload is made of, in isolation: a whole-flight
// snapshot scan answered over one pipelined binary connection of an
// in-process server. One Read is a full round trip — request frame,
// parse, pin, scan into the row set, response frame, client decode into
// row maps — so its bytes/op and allocs/op are the wire path's.
type SnapreadWire struct {
	db    *quantumdb.DB
	ln    net.Listener
	pipe  *server.PipeClient
	rows  int
	query string
}

// SnapreadRows is the canonical row count: one flight of the rowscan
// world (150 seats).
const SnapreadRows = 150

// NewSnapreadWire serves three flights of rows seats each and connects.
func NewSnapreadWire(rows int) (*SnapreadWire, error) {
	db, err := quantumdb.Open(quantumdb.Options{})
	if err != nil {
		return nil, err
	}
	s := &SnapreadWire{db: db, rows: rows, query: "Available(2, s)"}
	if err := db.CreateTable(quantumdb.Table{Name: "Available", Columns: []string{"fno", "sno"}}); err != nil {
		s.Close()
		return nil, err
	}
	for f := 1; f <= 3; f++ {
		for i := 0; i < rows; i++ {
			if err := db.Exec(fmt.Sprintf("+Available(%d, '%d%c')", f, i/6+1, 'A'+i%6)); err != nil {
				s.Close()
				return nil, err
			}
		}
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		s.Close()
		return nil, err
	}
	go server.New(db).Serve(s.ln)
	if s.pipe, err = server.DialPipe(s.ln.Addr().String()); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Read performs one snapshot scan round trip and checks the row count.
func (s *SnapreadWire) Read() error {
	resp, err := s.pipe.Do(server.Request{Op: "snapread", Query: s.query})
	if err != nil {
		return err
	}
	if !resp.OK || len(resp.Rows) != s.rows {
		return fmt.Errorf("snapread: ok=%v err=%q, %d rows, want %d", resp.OK, resp.Err, len(resp.Rows), s.rows)
	}
	return nil
}

// Close tears the connection, listener and engine down.
func (s *SnapreadWire) Close() {
	if s.pipe != nil {
		s.pipe.Close()
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.db.Close()
}
