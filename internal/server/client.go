package server

import (
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

// Client speaks to a quantum database server: the retry, redirect and
// shed policy over one PipeClient. Safe for concurrent use; one logical
// call runs at a time (issue on a PipeClient directly to pipeline).
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
	retry RetryPolicy
	pipe  *PipeClient // nil until the next call dials
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

// Dial connects to a server with the default retry policy. The initial
// reachability check itself retries transient dial failures, so a
// one-shot CLI invocation launched during a leader restart connects
// once the server is back instead of failing on the first refusal.
func Dial(addr string) (*Client, error) {
	return DialWithPolicy(addr, RetryPolicy{})
}

// DialWithPolicy connects with an explicit retry policy.
func DialWithPolicy(addr string, p RetryPolicy) (*Client, error) {
	c := &Client{addr: addr, retry: p}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// connectLocked establishes the connection, retrying transient dial and
// handshake failures within the policy's budget. No request is sent
// beyond the preamble.
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

// dialLocked performs one connect attempt, magic exchange included.
func (c *Client) dialLocked() error {
	p, err := DialPipe(c.addr)
	if err != nil {
		return err
	}
	c.pipe = p
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
	if c.pipe == nil {
		return nil
	}
	err := c.pipe.Close()
	c.pipe = nil
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

// once performs a single request over the current pipe, dialing if
// needed. A reply that does not decode comes back from the pipe as a
// transport failure, so roundTrip drops the pipe and retries.
func (c *Client) once(req Request) (Response, error) {
	if c.pipe == nil {
		if err := c.dialLocked(); err != nil {
			return Response{}, err
		}
	}
	return c.pipe.Do(req)
}

func (c *Client) dropConnLocked() {
	if c.pipe != nil {
		c.pipe.Close()
	}
	c.pipe = nil
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
