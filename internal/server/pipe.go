package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"
)

// PipeClient is the client side of the wire protocol and its only
// frame exchange: many goroutines issue requests concurrently over ONE
// connection, each request stamped with a fresh ID, and a reader
// goroutine demultiplexes the out-of-order response stream back to
// callers by echoed ID. This is the client shape the server's data
// plane is built for — a window of requests in flight keeps the
// dispatch pool fed from a single socket.
//
// PipeClient itself has no retries, no redirect following and no
// reconnects; Client and ReplicaClient layer those policies over one
// pipe each. A transport error poisons the whole pipe (every in-flight
// and future call gets it); the caller replaces the pipe. Shed
// responses (Response.Retry) are returned to the caller undecorated,
// who decides whether to back off and reissue.
type PipeClient struct {
	conn net.Conn

	// wmu serializes writers: one frame is encoded into the shared
	// write buffer and written with a single conn.Write at a time.
	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	pending map[uint64]chan pipeReply
	nextID  uint64
	err     error // sticky: first transport failure, fanned out by the reader
}

type pipeReply struct {
	resp Response
	err  error
}

// DialPipe connects a pipelined client: one dial and one magic
// exchange, each bounded by dialTimeout.
func DialPipe(addr string) (*PipeClient, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	br, err := handshake(conn, addr)
	if err != nil {
		conn.Close()
		return nil, err
	}
	p := &PipeClient{conn: conn, pending: make(map[uint64]chan pipeReply)}
	go p.readLoop(br)
	return p, nil
}

// handshake performs the protocol's magic exchange on a fresh
// connection — send the preamble, require its echo — within dialTimeout,
// and returns the buffered reader the frames follow on. A server that
// answers anything else is not speaking this protocol version: a qdb
// server of another version says so in one line, which is passed on, so
// the caller sees "protocol version mismatch" rather than a stalled or
// garbled exchange. There is nothing to downgrade to: a server speaks
// one protocol version and refuses every other opening.
func handshake(conn net.Conn, addr string) (*bufio.Reader, error) {
	conn.SetDeadline(time.Now().Add(dialTimeout))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write([]byte(frameMagic)); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	var echo [len(frameMagic)]byte
	if _, err := io.ReadFull(br, echo[:]); err != nil {
		return nil, err
	}
	if string(echo[:]) == frameMagic {
		return br, nil
	}
	// The refusal is one line; take what is there of it.
	rest, _ := br.ReadString('\n')
	return nil, fmt.Errorf("server: %s did not ack protocol %s/%d: %s",
		addr, magicPrefix, frameMagic[len(magicPrefix)], strings.TrimSpace(string(echo[:])+rest))
}

// Do issues one request and blocks for its response; any number of Do
// calls may be in flight concurrently. The server's response order is
// completion order, not issue order — the demux hides that from
// callers.
func (p *PipeClient) Do(req Request) (Response, error) {
	_, ch, err := p.send(&req)
	if err != nil {
		return Response{}, err
	}
	r := <-ch
	return r.resp, r.err
}

// doTimeout is Do that stops waiting for the reply after timeout. The
// request may still be served; its late reply is discarded.
func (p *PipeClient) doTimeout(req Request, timeout time.Duration) (Response, error) {
	id, ch, err := p.send(&req)
	if err != nil {
		return Response{}, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-t.C:
		p.forget(id)
		return Response{}, fmt.Errorf("server: no reply to %s within %v: %w", req.Op, timeout, os.ErrDeadlineExceeded)
	}
}

// send registers a reply channel under a fresh ID and writes req's
// frame as a single conn.Write.
func (p *PipeClient) send(req *Request) (uint64, chan pipeReply, error) {
	op, ok := opCodes[req.Op]
	if !ok {
		return 0, nil, fmt.Errorf("server: unknown op %q", req.Op)
	}
	ch := make(chan pipeReply, 1)
	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return 0, nil, err
	}
	p.nextID++
	id := p.nextID
	p.pending[id] = ch
	p.mu.Unlock()

	p.wmu.Lock()
	p.wbuf = beginFrame(p.wbuf[:0], id, op)
	p.wbuf = appendRequest(p.wbuf, req)
	p.wbuf = finishFrame(p.wbuf)
	_, err := p.conn.Write(p.wbuf)
	p.wmu.Unlock()
	if err != nil {
		p.forget(id)
		return 0, nil, err
	}
	return id, ch, nil
}

// forget drops id's reply registration, for a caller that stops
// waiting; the reader drops it itself when it delivers.
func (p *PipeClient) forget(id uint64) {
	p.mu.Lock()
	delete(p.pending, id)
	p.mu.Unlock()
}

// readLoop is the demux: it owns the read half of the connection and
// the reused frame buffer, and fans each response out to the caller
// that registered its ID. A read error is terminal for the pipe.
func (p *PipeClient) readLoop(br *bufio.Reader) {
	var rbuf []byte
	for {
		id, _, payload, nbuf, err := readFrame(br, rbuf)
		rbuf = nbuf
		if err != nil {
			p.fail(err)
			return
		}
		resp, derr := decodeResponse(payload)
		p.mu.Lock()
		ch := p.pending[id]
		delete(p.pending, id)
		p.mu.Unlock()
		if ch != nil {
			if derr != nil {
				// The frame was intact but its payload did not parse: the
				// stream is suspect. The error reads as a transport
				// failure, so Client drops this pipe and retries on a new
				// one.
				ch <- pipeReply{err: fmt.Errorf("%w: %v", io.ErrUnexpectedEOF, derr)}
			} else {
				ch <- pipeReply{resp: resp}
			}
		}
	}
}

// fail latches the pipe's first error and delivers it to every waiter.
// Reply channels are buffered (capacity 1) and each ID is delivered at
// most once, so the fan-out cannot block.
func (p *PipeClient) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	for id, ch := range p.pending {
		delete(p.pending, id)
		ch <- pipeReply{err: err}
	}
	p.mu.Unlock()
}

// Close tears the pipe down; in-flight calls fail with the resulting
// read error.
func (p *PipeClient) Close() error {
	return p.conn.Close()
}
