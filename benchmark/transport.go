package main

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	quantumdb "repro"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/txn"
)

// callCtx travels with one operation into a transport: where to record
// spans and which request they belong to.
type callCtx struct {
	buf    *spanBuf
	op     int64 // request id shared by the operation's spans
	parent int64 // id of the operation's outer span
	// retries counts shed responses this call had to retry; rows counts
	// the rows a whole-flight scan returned.
	retries, rows int
}

func (c *callCtx) span(name string) int64 { return c.buf.start(name, c.op, c.parent) }

// transport is how a workload reaches the system: through the embedded
// facade or over the wire. Reads return the row count and the seat bound
// in the first row.
type transport interface {
	submit(c *callCtx, text string) (int64, error)
	etxn(c *callCtx, text, tag, partner string) (int64, error)
	batch(c *callCtx, texts []string) (ids []int64, errs []string, err error)
	exec(c *callCtx, facts string) error
	// ground reports already=true when the transaction had collapsed
	// before the call (the k-bound or a read got there first).
	ground(c *callCtx, id int64) (already bool, err error)
	read(c *callCtx, query string) (n int, seat string, err error)
	snapread(c *callCtx, query string) (n int, seat string, err error)
}

// embedded drives the public facade in-process. An untraced run calls the
// facade exactly as an application would. A traced run sequences the
// parse and the engine admission itself, so each gets its own span; the
// work done is the same.
type embedded struct {
	db     *quantumdb.DB
	co     *quantumdb.Coordinator
	traced bool
	cco    *core.Coordinator // traced runs: the engine's coordinator
}

func newEmbedded(db *quantumdb.DB, traced bool) *embedded {
	e := &embedded{db: db, traced: traced}
	if traced {
		e.cco = core.NewCoordinator(db.Engine())
	} else {
		e.co = db.NewCoordinator()
	}
	return e
}

func (e *embedded) parse(c *callCtx, text string) (*txn.T, error) {
	id := c.span("txn.parse")
	t, err := txn.Parse(text)
	c.buf.end(id)
	return t, err
}

func (e *embedded) submit(c *callCtx, text string) (int64, error) {
	if !e.traced {
		return e.db.Submit(text)
	}
	t, err := e.parse(c, text)
	if err != nil {
		return 0, err
	}
	id := c.span("core.submit")
	tid, err := e.db.Engine().Submit(t)
	c.buf.end(id)
	return tid, err
}

func (e *embedded) etxn(c *callCtx, text, tag, partner string) (int64, error) {
	if !e.traced {
		return e.co.Submit(text, tag, partner)
	}
	t, err := e.parse(c, text)
	if err != nil {
		return 0, err
	}
	t.Tag, t.PartnerTag = tag, partner
	id := c.span("core.submit")
	tid, err := e.cco.Submit(t)
	c.buf.end(id)
	return tid, err
}

func (e *embedded) batch(c *callCtx, texts []string) ([]int64, []string, error) {
	id := c.span("core.submit_batch")
	ids, errs := e.db.SubmitBatch(texts)
	c.buf.end(id)
	out := make([]string, len(errs))
	for i, err := range errs {
		if err != nil {
			out[i] = err.Error()
		}
	}
	return ids, out, nil
}

func (e *embedded) exec(c *callCtx, facts string) error {
	id := c.span("core.write")
	err := e.db.Exec(facts)
	c.buf.end(id)
	return err
}

func (e *embedded) ground(c *callCtx, tid int64) (bool, error) {
	id := c.span("core.ground")
	err := e.db.Ground(tid)
	c.buf.end(id)
	if errors.Is(err, core.ErrUnknownTxn) {
		return true, nil
	}
	return false, err
}

func (e *embedded) read(c *callCtx, query string) (int, string, error) {
	id := c.span("core.read")
	rows, err := e.db.Query(query)
	c.buf.end(id)
	return firstSeat(rows, err)
}

func (e *embedded) snapread(c *callCtx, query string) (int, string, error) {
	id := c.span("core.snapread")
	snap := e.db.Snapshot()
	rows, err := snap.Query(query)
	snap.Release()
	c.buf.end(id)
	return firstSeat(rows, err)
}

func firstSeat(rows []quantumdb.Row, err error) (int, string, error) {
	if err != nil || len(rows) == 0 {
		return len(rows), "", err
	}
	return len(rows), rows[0]["s"].Str(), nil
}

// wire drives one pipelined binary connection. A shed (the server's
// structured "retry later") is retried up to three times with a short
// pause; a request still refused after that fails.
type wire struct {
	pipe *server.PipeClient
}

const shedRetries = 3

func (w *wire) do(c *callCtx, req server.Request) (server.Response, error) {
	id := c.span("server." + req.Op)
	defer c.buf.end(id)
	for attempt := 0; ; attempt++ {
		resp, err := w.pipe.Do(req)
		if err != nil {
			return resp, err
		}
		if resp.Retry && attempt < shedRetries {
			c.retries++
			time.Sleep(time.Duration(attempt+1) * 2 * time.Millisecond)
			continue
		}
		if !resp.OK {
			return resp, fmt.Errorf("%s refused: %s", req.Op, resp.Err)
		}
		return resp, nil
	}
}

func (w *wire) submit(c *callCtx, text string) (int64, error) {
	resp, err := w.do(c, server.Request{Op: "txn", Txn: text})
	return resp.ID, err
}

func (w *wire) etxn(c *callCtx, text, tag, partner string) (int64, error) {
	resp, err := w.do(c, server.Request{Op: "etxn", Txn: text, Tag: tag, Partner: partner})
	return resp.ID, err
}

func (w *wire) batch(c *callCtx, texts []string) ([]int64, []string, error) {
	resp, err := w.do(c, server.Request{Op: "batch", Txns: texts})
	return resp.IDs, resp.Errs, err
}

func (w *wire) exec(c *callCtx, facts string) error {
	_, err := w.do(c, server.Request{Op: "exec", Facts: facts})
	return err
}

func (w *wire) ground(c *callCtx, id int64) (bool, error) {
	_, err := w.do(c, server.Request{Op: "ground", ID: id})
	if err != nil && strings.Contains(err.Error(), core.ErrUnknownTxn.Error()) {
		return true, nil
	}
	return false, err
}

func (w *wire) read(c *callCtx, query string) (int, string, error) {
	return wireSeat(w.do(c, server.Request{Op: "read", Query: query}))
}

func (w *wire) snapread(c *callCtx, query string) (int, string, error) {
	return wireSeat(w.do(c, server.Request{Op: "snapread", Query: query}))
}

// wireSeat unquotes the seat of the first row (the wire carries values in
// their quoted text form).
func wireSeat(resp server.Response, err error) (int, string, error) {
	if err != nil || len(resp.Rows) == 0 {
		return len(resp.Rows), "", err
	}
	return len(resp.Rows), strings.Trim(resp.Rows[0]["s"], "'"), nil
}

// countingListener counts the bytes the server reads from and writes to
// client connections, so bytes per row and per request are measured at
// the socket and not inferred from payload sizes.
type countingListener struct {
	net.Listener
	in, out atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.out.Add(int64(n))
	return n, err
}
