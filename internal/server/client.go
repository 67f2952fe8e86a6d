package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	quantumdb "repro"
	"repro/internal/replica"
	"repro/internal/value"
)

// Proto selects the wire protocol a Client speaks.
type Proto int

const (
	// ProtoBinary is the framed binary protocol (frame.go): the client
	// opens with the magic preamble and encodes requests into pooled
	// frame buffers. The default.
	ProtoBinary Proto = iota
	// ProtoJSON is the legacy one-JSON-object-per-line protocol; servers
	// serve it forever (it is also the debugging protocol: a shell
	// heredoc over /dev/tcp speaks it).
	ProtoJSON
)

// Client speaks to a quantum database server — the framed binary
// protocol by default, JSON lines via DialJSON. Safe for concurrent
// use; requests are serialized over one connection (PipeClient is the
// pipelined form).
//
// The client is failover-aware: transient transport errors (dial
// refused, reset, EOF from a dying server) are retried under a capped
// jittered backoff, a structured leader-moved refusal (Response.
// Redirect — a demoted leader or read-only follower naming the current
// leader) reconnects to the named address and retries there, and a
// retryable refusal (Response.Retry — the server shedding load with
// its inflight window full) backs off and retries on the same
// connection. One caveat is inherent to retrying writes: a submit
// whose response was lost may have committed before the connection
// died, so retried mutations are at-least-once. Reads and idempotent
// verbs are safe; callers that need exactly-once writes must dedupe at
// the application layer.
type Client struct {
	mu    sync.Mutex
	addr  string
	proto Proto
	retry RetryPolicy
	conn  net.Conn
	// JSON protocol state.
	dec *json.Decoder
	enc *json.Encoder
	// Binary protocol state: the buffered frame reader and the reused
	// encode/decode buffers (the pooled-buffer discipline — one logical
	// call in flight under mu, so one buffer each way suffices).
	br     *bufio.Reader
	wbuf   []byte
	rbuf   []byte
	nextID uint64
}

// RetryPolicy bounds one logical call's persistence. Zero fields take
// defaults: 8 attempts, 25ms base delay doubling to a 2s cap (full
// jitter), 4 leader-moved hops.
type RetryPolicy struct {
	MaxAttempts  int
	BaseDelay    time.Duration
	MaxDelay     time.Duration
	MaxRedirects int
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.MaxRedirects <= 0 {
		p.MaxRedirects = 4
	}
	return p
}

// dialTimeout bounds one TCP connect inside a call attempt.
const dialTimeout = 5 * time.Second

// Dial connects to a server over the binary protocol with the default
// retry policy. The initial reachability check itself retries transient
// dial failures, so a one-shot CLI invocation launched during a leader
// restart connects once the server is back instead of failing on the
// first refusal.
func Dial(addr string) (*Client, error) {
	return DialProto(addr, ProtoBinary, RetryPolicy{})
}

// DialWithPolicy connects over the binary protocol with an explicit
// retry policy.
func DialWithPolicy(addr string, p RetryPolicy) (*Client, error) {
	return DialProto(addr, ProtoBinary, p)
}

// DialJSON connects over the legacy JSON-lines protocol (the server
// serves both on one port; this exercises its fallback path).
func DialJSON(addr string) (*Client, error) {
	return DialProto(addr, ProtoJSON, RetryPolicy{})
}

// DialProto connects with an explicit protocol and retry policy.
func DialProto(addr string, proto Proto, p RetryPolicy) (*Client, error) {
	c := &Client{addr: addr, proto: proto, retry: p}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// connectLocked establishes the connection, retrying transient dial
// (and, on the binary protocol, handshake) failures within the
// policy's budget. No request is sent beyond the preamble.
func (c *Client) connectLocked() error {
	p := c.retry.withDefaults()
	bo := replica.NewBackoff(p.BaseDelay, p.MaxDelay)
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.Next())
		}
		err := c.dialLocked()
		if err == nil {
			return nil
		}
		if !isTransient(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("server: dial %s failed after %d attempts: %w",
		c.addr, p.MaxAttempts, lastErr)
}

// dialLocked performs one connect attempt, including the binary
// protocol's magic exchange (handshake).
func (c *Client) dialLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return err
	}
	if c.proto == ProtoJSON {
		c.conn = conn
		c.dec = json.NewDecoder(bufio.NewReader(conn))
		c.enc = json.NewEncoder(conn)
		return nil
	}
	br, err := handshake(conn, c.addr)
	if err != nil {
		conn.Close()
		return err
	}
	c.conn = conn
	c.br = br
	return nil
}

// Addr is the address the client currently targets; it moves when a
// redirect is followed.
func (c *Client) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.dec, c.enc, c.br = nil, nil, nil, nil
	return err
}

// roundTrip runs one logical call: send, decode, and on transient
// failure or leader-moved redirect, reconnect and try again within the
// policy's budget. Redirects don't consume retry attempts (they are
// progress), but are capped separately so two servers pointing at each
// other can't loop forever.
func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.retry.withDefaults()
	bo := replica.NewBackoff(p.BaseDelay, p.MaxDelay)
	redirects := 0
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.Next())
		}
		resp, err := c.once(req)
		if err != nil {
			if !isTransient(err) {
				return Response{}, err
			}
			lastErr = err
			c.dropConnLocked()
			continue
		}
		if resp.OK {
			return resp, nil
		}
		if resp.Retry {
			// Structured shed: the server's inflight window stayed full
			// past its queue-wait threshold. The connection is healthy —
			// back off and retry on it.
			lastErr = fmt.Errorf("server: %s", resp.Err)
			continue
		}
		if rd := resp.Redirect; rd != nil && rd.Addr != "" && rd.Addr != c.addr && redirects < p.MaxRedirects {
			redirects++
			c.dropConnLocked()
			c.addr = rd.Addr
			bo.Reset()
			attempt--
			continue
		}
		return resp, fmt.Errorf("server: %s", resp.Err)
	}
	return Response{}, fmt.Errorf("server: %s against %s failed after %d attempts: %w",
		req.Op, c.addr, p.MaxAttempts, lastErr)
}

// once performs a single request over the current connection, dialing
// if needed.
func (c *Client) once(req Request) (Response, error) {
	if c.conn == nil {
		if err := c.dialLocked(); err != nil {
			return Response{}, err
		}
	}
	if c.proto == ProtoBinary {
		return c.onceBinary(&req)
	}
	if err := c.enc.Encode(req); err != nil {
		return Response{}, err
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// onceBinary frames one request into the reused write buffer, sends it
// as a single write, and reads response frames until the echoed ID
// matches (stale replies from an abandoned earlier call on the same
// connection are skipped, defensively — the synchronous client never
// leaves one behind on a healthy exchange).
func (c *Client) onceBinary(req *Request) (Response, error) {
	op, ok := opCodes[req.Op]
	if !ok {
		return Response{}, fmt.Errorf("server: unknown op %q", req.Op)
	}
	c.nextID++
	id := c.nextID
	c.wbuf = beginFrame(c.wbuf[:0], id, op)
	c.wbuf = appendRequest(c.wbuf, req)
	c.wbuf = finishFrame(c.wbuf)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return Response{}, err
	}
	for {
		rid, _, payload, nbuf, err := readFrame(c.br, c.rbuf)
		c.rbuf = nbuf
		if err != nil {
			return Response{}, err
		}
		if rid != id {
			continue
		}
		resp, err := decodeResponse(payload)
		if err != nil {
			// The frame was intact but its payload didn't parse: the
			// stream is suspect. Drop the connection so the next attempt
			// starts clean, and retry as a transport failure.
			c.dropConnLocked()
			return Response{}, fmt.Errorf("%w: %v", io.ErrUnexpectedEOF, err)
		}
		return resp, nil
	}
}

func (c *Client) dropConnLocked() {
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn, c.dec, c.enc, c.br = nil, nil, nil, nil
}

// isTransient classifies transport-level failures worth retrying:
// refused/reset/closed connections, EOF from a server dying mid-reply,
// and timeouts. Anything else (a well-formed server refusal travels as
// a Response, not an error) is surfaced immediately.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) {
		return true
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(Request{Op: "ping"})
	return err
}

// CreateTable registers a relation.
func (c *Client) CreateTable(t TableSpec) error {
	_, err := c.roundTrip(Request{Op: "create", Table: &t})
	return err
}

// Exec applies signed ground writes.
func (c *Client) Exec(facts string) error {
	_, err := c.roundTrip(Request{Op: "exec", Facts: facts})
	return err
}

// Submit admits a resource transaction (Datalog-like notation).
func (c *Client) Submit(txn string) (int64, error) {
	resp, err := c.roundTrip(Request{Op: "txn", Txn: txn})
	return resp.ID, err
}

// SubmitBatch admits a batch of resource transactions in one round
// trip and one amortized server-side admission cycle. Results align
// with txns: ids[i] is valid where errs[i] is nil. The returned error
// covers transport-level failure of the whole call; per-member
// rejections ride in errs.
func (c *Client) SubmitBatch(txns []string) (ids []int64, errs []error, err error) {
	resp, err := c.roundTrip(Request{Op: "batch", Txns: txns})
	if err != nil {
		return nil, nil, err
	}
	errs = make([]error, len(txns))
	for i, e := range resp.Errs {
		if e != "" && i < len(errs) {
			errs[i] = fmt.Errorf("server: %s", e)
		}
	}
	return resp.IDs, errs, nil
}

// SubmitSQL admits a resource transaction in SQL syntax.
func (c *Client) SubmitSQL(stmt string) (int64, error) {
	resp, err := c.roundTrip(Request{Op: "sql", Txn: stmt})
	return resp.ID, err
}

// SubmitEntangled admits an entangled resource transaction.
func (c *Client) SubmitEntangled(txn, tag, partner string) (int64, error) {
	resp, err := c.roundTrip(Request{Op: "etxn", Txn: txn, Tag: tag, Partner: partner})
	return resp.ID, err
}

// Query runs a conjunctive read (collapsing server-side as needed) and
// returns variable bindings per row.
func (c *Client) Query(query string) ([]map[string]value.Value, error) {
	resp, err := c.roundTrip(Request{Op: "read", Query: query})
	if err != nil {
		return nil, err
	}
	rows := make([]map[string]value.Value, len(resp.Rows))
	for i, r := range resp.Rows {
		m := make(map[string]value.Value, len(r))
		for k, s := range r {
			v, err := value.Parse(s)
			if err != nil {
				return nil, fmt.Errorf("server: bad value %q: %v", s, err)
			}
			m[k] = v
		}
		rows[i] = m
	}
	return rows, nil
}

// Preview lists the pending transaction IDs a read would collapse.
func (c *Client) Preview(query string) ([]int64, error) {
	resp, err := c.roundTrip(Request{Op: "preview", Query: query})
	return resp.IDs, err
}

// Ground collapses one transaction; GroundAll collapses everything.
func (c *Client) Ground(id int64) error {
	_, err := c.roundTrip(Request{Op: "ground", ID: id})
	return err
}

// GroundAll collapses every pending transaction.
func (c *Client) GroundAll() error {
	_, err := c.roundTrip(Request{Op: "groundall"})
	return err
}

// Pending returns the number of pending transactions.
func (c *Client) Pending() (int, error) {
	resp, err := c.roundTrip(Request{Op: "pending"})
	return resp.Pending, err
}

// SnapRead runs a collapse-free snapshot query and returns the wire's
// quoted-string rows verbatim — handy for diffing a leader against a
// follower, where byte-equal rows are the point.
func (c *Client) SnapRead(query string) ([]map[string]string, error) {
	resp, err := c.roundTrip(Request{Op: "snapread", Query: query})
	return resp.Rows, err
}

// Lag reports replication positions: the server's WAL sequence (leader)
// or last-seen leader sequence (follower), the applied watermark (best
// subscriber ack on a leader, own applied seq on a follower), and the
// difference.
func (c *Client) Lag() (seq, applied, lag uint64, err error) {
	resp, err := c.roundTrip(Request{Op: "lag"})
	return resp.Seq, resp.Applied, resp.Lag, err
}

// Term reports the server's current replication term (via the lag
// verb, which both roles answer).
func (c *Client) Term() (uint64, error) {
	resp, err := c.roundTrip(Request{Op: "lag"})
	return resp.Term, err
}

// Promote asks a follower server to promote itself to leader; force
// skips the fence exchange (use when the leader is known dead).
// Returns the new leader's term and WAL position. Promoting a server
// that is already the leader succeeds and reports its current term.
func (c *Client) Promote(force bool) (term, seq uint64, err error) {
	resp, err := c.roundTrip(Request{Op: "promote", Force: force})
	return resp.Term, resp.Seq, err
}

// Stats fetches the server's engine counters (follower-side fields
// filled on a follower).
func (c *Client) Stats() (quantumdb.Stats, error) {
	resp, err := c.roundTrip(Request{Op: "stats"})
	if err != nil {
		return quantumdb.Stats{}, err
	}
	return *resp.Stats, nil
}
