package server

import (
	"bufio"
	"net"
	"sync"
	"time"
)

// This file is the pipelined binary connection loop: the server-side
// half of the binary protocol negotiated in handle. One connection gets
// three kinds of goroutines —
//
//   - the reader (handleBinary itself): reads frames, decodes requests,
//     admits them into the bounded inflight window (shedding with the
//     retryable overloaded error when the window stays full past the
//     queue-wait threshold), and spawns a dispatcher per admitted
//     request;
//   - dispatchers: run s.dispatch on the engine concurrently — the
//     whole point: the admission layer is parallel, so one connection's
//     requests should feed it in parallel too — and encode the response,
//     row set included, into a pooled frame buffer themselves, so a
//     row-heavy read's encoding runs in parallel as well;
//   - the writer (writeResponses): the ONLY goroutine writing to the
//     connection. Dispatchers hand it sealed frames over a channel and
//     it writes them in completion order — out of order with respect
//     to arrival — batching socket writes by flushing only when its
//     queue runs dry, and returns the buffers to the pool.
//
// Drain discipline: a dispatched request holds a beginOp slot until its
// response frame is FLUSHED to the socket (the writer releases slots
// after each flush), so Shutdown's "in-flight dispatches finish writing
// their responses" promise holds on the binary path exactly as on the
// JSON path.

// binResp is one completed response travelling dispatcher → writer.
type binResp struct {
	frame *frameBuf
	// counted marks responses holding a beginOp slot, released by the
	// writer once the frame reaches the socket. Sheds and decode-error
	// replies are uncounted — they never dispatched.
	counted bool
}

// frameBuf is a pooled response frame. The pool holds pointers so that
// returning a buffer allocates nothing.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// maxPooledFrame keeps the occasional huge frame (a repl.bootstrap
// image) from pinning its buffer in the pool.
const maxPooledFrame = 1 << 20

// encodeResponse seals resp into a pooled frame answering request id.
func encodeResponse(id uint64, resp *Response) *frameBuf {
	f := framePool.Get().(*frameBuf)
	b, err := appendResponse(beginFrame(f.b[:0], id, 0), resp)
	if err != nil {
		// Response encoding failed (stats marshal): the stream is still
		// in sync, so frame the error instead.
		b, _ = appendResponse(beginFrame(b[:0], id, 0), &Response{Err: err.Error()})
	}
	f.b = finishFrame(b)
	return f
}

func releaseFrame(f *frameBuf) {
	if cap(f.b) <= maxPooledFrame {
		framePool.Put(f)
	}
}

func (s *Server) handleBinary(conn net.Conn, br *bufio.Reader) {
	bw := bufio.NewWriter(conn)
	// Ack the negotiation by echoing the magic: the client knows the
	// server speaks binary before it sends its first frame.
	if _, err := bw.WriteString(frameMagic); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	window := s.maxInflight
	// Writer queue: window dispatchers plus the reader (shed/decode
	// replies) can be blocked sending at once; one extra slot keeps the
	// reader from waiting on a full window's completions.
	out := make(chan binResp, window+1)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		s.writeResponses(bw, out)
	}()
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	var rbuf []byte
	var shedTimer *time.Timer
	for {
		id, op, payload, nbuf, err := readFrame(br, rbuf)
		rbuf = nbuf
		if err != nil {
			break // disconnect or corrupt framing: drop the connection
		}
		start := time.Now()
		req, derr := decodeRequest(op, payload)
		s.frameHist.Observe(time.Since(start))
		if derr != nil {
			// The frame itself was sound (length and CRC checked), so
			// the stream is still in sync: answer the bad payload
			// in-band and keep serving.
			out <- binResp{frame: encodeResponse(id, &Response{Err: derr.Error()})}
			continue
		}
		// Window admission: take a slot immediately if one is free,
		// otherwise queue for at most shedWait, then shed. The reader
		// never blocks unboundedly, so a slow op can delay — but not
		// wedge — the whole connection.
		select {
		case sem <- struct{}{}:
		default:
			if shedTimer == nil {
				shedTimer = time.NewTimer(s.shedWait)
			} else {
				shedTimer.Reset(s.shedWait)
			}
			select {
			case sem <- struct{}{}:
				if !shedTimer.Stop() {
					<-shedTimer.C
				}
			case <-shedTimer.C:
				s.sheds.Add(1)
				out <- binResp{frame: encodeResponse(id, &Response{Err: ErrOverloaded.Error(), Retry: true})}
				continue
			}
		}
		if !s.beginOp() {
			// Draining: refuse and stop reading, mirroring the JSON
			// loop; in-flight dispatchers below still complete and
			// their responses still flush.
			<-sem
			out <- binResp{frame: encodeResponse(id, &Response{Err: ErrShuttingDown.Error()})}
			break
		}
		s.inflight.Add(1)
		wg.Add(1)
		go func(id uint64, req Request) {
			defer wg.Done()
			start := time.Now()
			resp := s.dispatch(req)
			frame := encodeResponse(id, &resp)
			s.observeOp(req.Op, start)
			s.inflight.Add(-1)
			<-sem
			out <- binResp{frame: frame, counted: true}
		}(id, req)
	}
	wg.Wait()
	close(out)
	writerWG.Wait()
}

// writeResponses is the single writer goroutine of one binary
// connection: it writes sealed frames in completion order and flushes
// only when its queue is empty, so bursts of completions coalesce into
// few socket writes. beginOp slots held by
// counted responses are released only after the flush that made their
// frames visible — or immediately once the connection is known broken,
// so a dead peer cannot wedge a drain.
func (s *Server) writeResponses(bw *bufio.Writer, out chan binResp) {
	unflushed := 0
	release := func() {
		for ; unflushed > 0; unflushed-- {
			s.endOp()
		}
	}
	broken := false
	for m := range out {
		if m.counted {
			unflushed++
		}
		if broken {
			releaseFrame(m.frame)
			release()
			continue
		}
		_, err := bw.Write(m.frame.b)
		releaseFrame(m.frame)
		if err != nil {
			broken = true
			release()
			continue
		}
		if len(out) == 0 {
			if err := bw.Flush(); err != nil {
				broken = true
			}
			release()
		}
	}
	if !broken {
		bw.Flush()
	}
	release()
}
