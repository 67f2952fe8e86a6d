package server

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/replica"
	"repro/internal/txn"
)

// This file is the network leg of WAL log shipping: the leader serves
// repl.bootstrap / repl.pull like any other verb, a follower-mode
// server answers reads from its replayed store, and ReplicaClient
// adapts the wire back into a replica.Transport so the follower loop is
// transport-agnostic (the replication harness drives the same loop over
// an in-process Pipe).

// ErrReadOnlyFollower is the refusal a follower sends for any mutating
// verb: followers have no admission path — every change must flow
// through the leader's WAL.
var ErrReadOnlyFollower = fmt.Errorf("server: read-only follower; submit mutations to the leader")

// dispatchFollower answers the read-only verb subset from the replica,
// plus the failover verbs: promote (when armed) and repl.fence (a new
// leader announcing itself — the follower retargets its pull loop).
func (s *Server) dispatchFollower(r *serverRole, req Request) Response {
	fail := func(err error) Response { return Response{Err: err.Error()} }
	switch req.Op {
	case "ping":
		return Response{OK: true}
	case "lag":
		return Response{OK: true, Seq: r.fol.LeaderSeq(),
			Applied: r.fol.AppliedSeq(), Lag: r.fol.Lag(),
			Term: r.fol.Term()}
	case "snapread":
		// The follower's only read path is by construction collapse-free:
		// there is no pending superposition here to observe, only the
		// committed state replayed from the leader's log.
		st := r.fol.State()
		if st == nil {
			return fail(fmt.Errorf("follower not bootstrapped yet"))
		}
		atoms, err := txn.ParseQuery(req.Query)
		if err != nil {
			return fail(err)
		}
		rows, err := st.QuerySnapshot(atoms)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, rows: rows}
	case "pending":
		if st := r.fol.State(); st != nil {
			return Response{OK: true, Pending: st.PendingCount()}
		}
		return Response{OK: true}
	case "stats":
		st := r.fol.Stats()
		return Response{OK: true, Stats: &st}
	case "promote":
		return s.promoteFollower(r, req)
	case "repl.fence":
		// A promoted peer announcing itself at a new term: cede and
		// retarget the pull loop at the winner. A stale announcement
		// (term below what we already observe) is refused with the
		// current term and leader hint, mirroring the leader's refusal.
		if req.Term >= r.fol.Term() && req.Addr != "" {
			r.fol.SetLeaderAddr(req.Addr)
			r.fol.SetTransport(&ReplicaClient{Addr: req.Addr})
			return Response{OK: true, Granted: true, Term: req.Term}
		}
		resp := Response{OK: true, Granted: false, Term: r.fol.Term()}
		if addr := r.fol.LeaderAddr(); addr != "" {
			resp.Redirect = &Redirect{Addr: addr, Term: r.fol.Term()}
		}
		return resp
	default:
		// Mutating (or unknown) verb on a follower: refuse, and when the
		// leader is known, say where writes go — the client's cutover
		// signal.
		resp := Response{Err: ErrReadOnlyFollower.Error()}
		if addr := r.fol.LeaderAddr(); addr != "" {
			resp.Redirect = &Redirect{Addr: addr, Term: r.fol.Term()}
			s.redirects.Add(1)
		}
		return resp
	}
}

// ReplicaClient is a replica.Transport that speaks to a leader qdbd
// over one held pipelined connection (PipeClient): a follower pulls
// after every commit, and a dial, handshake and teardown per pull cost
// the leader more CPU than serving the pull. Calls that overlap — a
// promotion's fence exchange while a pull is parked at the leader —
// share the connection; the server dispatches them concurrently, so the
// fence does not wait behind the pull. A call makes one attempt and
// never follows redirects — the follower loop owns retrying. Any error
// closes the connection and the next call redials, so a leader restart
// or a flaky network costs one failed call, not a stuck stream. Safe
// for concurrent use.
type ReplicaClient struct {
	Addr string
	// Timeout bounds how long one call waits for its reply (default 30s;
	// stretched to cover Wait when long-polling). Dialing is bounded
	// like any Client's.
	Timeout time.Duration
	// Wait, when positive, asks the leader to long-poll pulls: the
	// server parks up to Wait for new batches before answering, so
	// shipping is push-shaped and follower lag drops to a round trip.
	Wait time.Duration

	mu   sync.Mutex
	pipe *PipeClient // the held connection; nil until the next call dials
}

var _ replica.Transport = (*ReplicaClient)(nil)

// Close drops the held connection; calls in flight on it fail. A call
// made after Close dials again.
func (c *ReplicaClient) Close() error {
	c.mu.Lock()
	p := c.pipe
	c.pipe = nil
	c.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.Close()
}

// held returns the held connection, dialing one when there is none.
func (c *ReplicaClient) held() (*PipeClient, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pipe == nil {
		p, err := DialPipe(c.Addr)
		if err != nil {
			return nil, err
		}
		c.pipe = p
	}
	return c.pipe, nil
}

// drop closes p and forgets it, unless a concurrent call has already
// replaced it.
func (c *ReplicaClient) drop(p *PipeClient) {
	c.mu.Lock()
	if c.pipe == p {
		c.pipe = nil
	}
	c.mu.Unlock()
	p.Close()
}

func (c *ReplicaClient) roundTrip(req Request) (Response, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	if c.Wait > 0 && timeout < c.Wait+10*time.Second {
		timeout = c.Wait + 10*time.Second
	}
	p, err := c.held()
	var resp Response
	if err == nil {
		if resp, err = p.doTimeout(req, timeout); err != nil {
			c.drop(p)
		}
	}
	if err != nil {
		return Response{}, fmt.Errorf("server: %s to leader %s: %w", req.Op, c.Addr, err)
	}
	if !resp.OK {
		return Response{}, fmt.Errorf("server: leader refused %s: %s", req.Op, resp.Err)
	}
	return resp, nil
}

// Bootstrap fetches a checkpoint image from the leader.
func (c *ReplicaClient) Bootstrap() ([]byte, uint64, error) {
	resp, err := c.roundTrip(Request{Op: "repl.bootstrap"})
	if err != nil {
		return nil, 0, err
	}
	return resp.Image, resp.Seq, nil
}

// Pull fetches the WAL suffix above after, carrying the follower's
// observed term (the leader demotes itself on seeing a higher one).
func (c *ReplicaClient) Pull(after, term uint64) (replica.PullResult, error) {
	req := Request{Op: "repl.pull", After: after, Term: term}
	if c.Wait > 0 {
		req.WaitMS = c.Wait.Milliseconds()
	}
	resp, err := c.roundTrip(req)
	if err != nil {
		return replica.PullResult{}, err
	}
	return replica.PullResult{
		Batches:    resp.Batches,
		LeaderSeq:  resp.Seq,
		LeaderTerm: resp.Term,
		Resync:     resp.Resync,
	}, nil
}

// Fence proposes that the caller lead at term, over the wire. A refusal
// (Granted false) is a successful exchange, not an error; the winner's
// address rides back in the response redirect.
func (c *ReplicaClient) Fence(term uint64, addr string) (replica.FenceResult, error) {
	resp, err := c.roundTrip(Request{Op: "repl.fence", Term: term, Addr: addr})
	if err != nil {
		return replica.FenceResult{}, err
	}
	res := replica.FenceResult{Granted: resp.Granted, Term: resp.Term}
	if resp.Redirect != nil {
		res.LeaderAddr = resp.Redirect.Addr
	}
	return res, nil
}
