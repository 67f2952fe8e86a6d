// Package server exposes a quantum database over TCP, making the
// middle-tier architecture of §4 (Figure 4) an actual network service:
// application clients submit resource and non-resource transactions;
// reads collapse server-side state exactly as in-process calls do, and
// snapread serves collapse-free reads from a copy-on-write snapshot —
// the read-scale path, which never blocks on (or stalls) concurrent
// grounding and writes.
//
// Two protocols share every port, negotiated per connection. A client
// that opens with the binary magic preamble (frame.go) gets the
// length-prefixed CRC-framed binary protocol with request pipelining:
// frames carry client-chosen request IDs, a bounded per-connection
// inflight window dispatches ops concurrently onto the engine, and
// responses return in completion order — out of order — matched back
// by ID (pipeline.go). Anything else is served the original JSON-lines
// protocol unchanged: one JSON request object per line, one JSON
// response per line, strictly in order (no request IDs). See Request
// and Response for the schema; the JSON protocol is deliberately plain
// so that non-Go clients can speak it with any JSON library.
//
// Requests from different connections — and, on the binary protocol,
// within one connection — dispatch concurrently: the engine is sharded
// by partition (each Submit/Ground/Read/Write acquires only the
// partitions it touches), admissions are optimistic (each Submit's
// chain solve runs outside the admission lock, so submits from many
// connections overlap end to end unless qdbd runs -serial-admission),
// the coordinator's registry has its own lock, and GroundAll and read
// collapse fan out over the engine's worker pool
// (quantumdb.Options.Workers, the -workers flag on qdbd). The batch
// verb admits several transactions in one amortized admission cycle
// (core.SubmitBatch). Backpressure: SetLimits bounds the per-connection
// window and the connection count, and a request that waits longer than
// the shed threshold for a window slot is refused with a structured
// retryable overloaded error instead of stalling the read loop.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	quantumdb "repro"
	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/telemetry"
)

// Request is one client command.
type Request struct {
	// Op is one of: create, exec, txn, etxn, sql, read, snapread,
	// preview, ground, groundall, pending, stats, ping.
	Op string `json:"op"`
	// Txn carries the transaction text (Datalog-like for txn/etxn, SQL
	// for sql).
	Txn string `json:"txn,omitempty"`
	// Query carries the conjunctive query for read/preview.
	Query string `json:"query,omitempty"`
	// Facts carries the signed ground atoms for exec.
	Facts string `json:"facts,omitempty"`
	// Tag and Partner mark entangled submissions (etxn).
	Tag     string `json:"tag,omitempty"`
	Partner string `json:"partner,omitempty"`
	// ID selects the transaction for ground.
	ID int64 `json:"id,omitempty"`
	// Table describes the relation for create.
	Table *TableSpec `json:"table,omitempty"`
	// After is repl.pull's resume watermark: return batches with
	// sequence numbers strictly above it.
	After uint64 `json:"after,omitempty"`
	// Term carries the caller's replication term: on repl.pull the
	// follower's observed term (a leader seeing a higher one demotes
	// itself), on repl.fence the proposed new term.
	Term uint64 `json:"term,omitempty"`
	// Addr is the caller's serving address, advertised on repl.fence so
	// the deposed leader can redirect clients to the winner.
	Addr string `json:"addr,omitempty"`
	// WaitMS asks repl.pull to long-poll: park up to this many
	// milliseconds for new batches instead of returning empty.
	WaitMS int64 `json:"wait_ms,omitempty"`
	// Force marks a promote that skips the fence exchange (the leader
	// is known dead and unreachable).
	Force bool `json:"force,omitempty"`
	// Txns carries the transaction texts of a batch submission; the
	// server admits them through one amortized admission cycle and
	// answers per-transaction IDs/Errs aligned with this slice.
	Txns []string `json:"txns,omitempty"`
}

// TableSpec mirrors quantumdb.Table for the wire.
type TableSpec struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Key     []int    `json:"key,omitempty"`
	Indexes [][]int  `json:"indexes,omitempty"`
}

// Response is the server's reply.
type Response struct {
	OK      bool                `json:"ok"`
	Err     string              `json:"err,omitempty"`
	ID      int64               `json:"id,omitempty"`
	Rows    []map[string]string `json:"rows,omitempty"`
	IDs     []int64             `json:"ids,omitempty"`
	Pending int                 `json:"pending,omitempty"`
	Stats   *quantumdb.Stats    `json:"stats,omitempty"`
	// Replication fields. Image is repl.bootstrap's checkpoint payload
	// (base64 on the wire); Seq is its WAL stamp, and on repl.pull/lag
	// the leader's current WAL sequence. Batches carries repl.pull's
	// shipped suffix; Resync demands a fresh bootstrap (the leader
	// truncated past After). Applied and Lag serve the lag op on both
	// leader (best subscriber ack) and follower (own watermark).
	Image   []byte      `json:"image,omitempty"`
	Seq     uint64      `json:"seq,omitempty"`
	Batches []WireBatch `json:"batches,omitempty"`
	Resync  bool        `json:"resync,omitempty"`
	Applied uint64      `json:"applied,omitempty"`
	Lag     uint64      `json:"lag,omitempty"`
	// Failover fields. Term is the responder's replication term (on
	// repl.pull, repl.fence, promote, lag). Granted reports a fence
	// exchange's outcome. Redirect rides on refused mutations: the
	// structured leader-moved hint retrying clients follow.
	Term     uint64    `json:"term,omitempty"`
	Granted  bool      `json:"granted,omitempty"`
	Redirect *Redirect `json:"redirect,omitempty"`
	// Errs carries batch per-transaction outcomes, aligned with the
	// request's Txns ("" = admitted, IDs[i] valid). Retry marks a
	// structured retryable refusal (the server shed the request under
	// load); clients back off and retry without dropping the
	// connection.
	Errs  []string `json:"errs,omitempty"`
	Retry bool     `json:"retry,omitempty"`
	// rows carries a read's result as the engine's columnar row set.
	// The binary encoder appends it to the response frame as is
	// (appendRowSet); the JSON write path renders Rows from it
	// (rowsText), so the quoted-string maps are built only for the JSON
	// wire, and on a binary client's side of the socket.
	rows *quantumdb.RowSet
}

// Redirect is the structured leader-moved payload: where the current
// leader serves and at what term. Clients (server.Client) follow it
// automatically; scripted callers can read it off the error response.
type Redirect struct {
	Addr string `json:"addr"`
	Term uint64 `json:"term"`
}

// WireBatch mirrors wal.Batch for the JSON wire; record payloads ride
// as base64. Term is the fencing token the batch was appended under.
type WireBatch struct {
	Seq     uint64       `json:"seq"`
	Term    uint64       `json:"term,omitempty"`
	Records []WireRecord `json:"records"`
}

// WireRecord mirrors wal.Record.
type WireRecord struct {
	Type    uint8  `json:"type"`
	Payload []byte `json:"payload,omitempty"`
}

// ops enumerates the protocol verbs; each gets a request-latency series
// (qdb_server_op_duration_seconds{op=...}) in the engine's registry.
// Unknown verbs land in "other".
var ops = []string{
	"create", "exec", "txn", "etxn", "sql", "read", "snapread",
	"preview", "ground", "groundall", "pending", "stats", "ping",
	"lag", "repl.bootstrap", "repl.pull", "repl.fence", "promote",
	"batch", "other",
}

// Server serves one quantum database to many connections. Engine calls
// synchronize internally per partition; the coordinator is safe for
// concurrent use, so no server-level lock serializes dispatch — the
// server's own mutex guards only lifecycle state (drain bookkeeping),
// taken once per request, never across engine calls.
type Server struct {
	// role is what this server currently is — leader (db/co/shipper
	// set) or follower (fol set). It is swapped atomically by a
	// successful promote verb: in-flight dispatches finish against the
	// role they loaded, new requests see the new one. A promoted role
	// keeps its fol pointer (sealed, read side only) for promotion and
	// term bookkeeping in stats.
	role   atomic.Pointer[serverRole]
	opHist map[string]*telemetry.Histogram
	// frameHist times binary frame reception+decode, first length byte
	// to decoded Request (qdb_server_frame_decode_seconds).
	frameHist *telemetry.Histogram
	// redirects counts leader-moved hints attached to refused
	// mutations (qdb_server_redirects_total).
	redirects atomic.Int64
	// inflight gauges dispatches currently executing across all binary
	// connections (qdb_server_inflight); sheds counts requests refused
	// with the retryable overloaded error (qdb_server_shed_total);
	// connsRefused counts connections dropped at the maxConns cap.
	inflight     atomic.Int64
	sheds        atomic.Int64
	connsRefused atomic.Int64
	// Backpressure knobs (SetLimits; fixed before Serve). maxInflight
	// bounds one binary connection's pipelined window, maxConns bounds
	// concurrent connections (0 = unlimited), shedWait is how long a
	// request queues for a window slot before being shed.
	maxInflight int
	maxConns    int
	shedWait    time.Duration

	mu         sync.Mutex
	promoteCfg *replica.PromoteConfig // armed by EnablePromotion
	draining   bool
	active     int           // dispatches currently executing
	drained    chan struct{} // closed when active hits 0 while draining
	listeners  map[net.Listener]struct{}
	conns      map[net.Conn]struct{}
}

// serverRole is one immutable snapshot of what the server fronts.
type serverRole struct {
	db      *quantumdb.DB
	co      *quantumdb.Coordinator
	shipper *replica.Shipper  // leader-side log shipping (nil on followers)
	fol     *replica.Follower // follower mode; retained after promotion for stats
}

func (r *serverRole) leader() bool { return r.db != nil }

// New wraps db. Register a Server at most once per database: it adds
// the server-side request-latency series to the database's registry.
func New(db *quantumdb.DB) *Server {
	s := newServer(db.Metrics())
	s.role.Store(&serverRole{
		db: db, co: db.NewCoordinator(),
		shipper: &replica.Shipper{DB: db.Engine(), MaxBatches: shipChunk},
	})
	return s
}

// NewFollower wraps a replica follower as a read-only server: it
// answers ping, snapread, peek-style reads, pending, stats, and lag
// from the replayed store, and refuses every mutation with
// ErrReadOnlyFollower (plus a Redirect when the leader is known).
// Request-latency series land in the follower's own registry. If
// promotion is armed (EnablePromotion), the promote verb turns this
// server into a leader in place.
func NewFollower(f *replica.Follower) *Server {
	s := newServer(f.Metrics())
	s.role.Store(&serverRole{fol: f})
	return s
}

// Default backpressure knobs: a 64-deep pipelined window per binary
// connection, unlimited connections, and a 50ms queue wait before a
// request is shed with the retryable overloaded error.
const (
	defaultMaxInflight = 64
	defaultShedWait    = 50 * time.Millisecond
)

func newServer(reg *telemetry.Registry) *Server {
	s := &Server{
		opHist:      make(map[string]*telemetry.Histogram, len(ops)),
		listeners:   make(map[net.Listener]struct{}),
		conns:       make(map[net.Conn]struct{}),
		maxInflight: defaultMaxInflight,
		shedWait:    defaultShedWait,
	}
	for _, op := range ops {
		s.opHist[op] = reg.Seconds("qdb_server_op_duration_seconds",
			fmt.Sprintf("op=%q", op),
			"Whole server request latency, decode to response write.")
	}
	s.frameHist = reg.Seconds("qdb_server_frame_decode_seconds", "",
		"Binary frame reception and decode latency, length prefix to Request.")
	reg.CounterFunc("qdb_server_redirects_total",
		"Leader-moved redirects attached to refused mutations.",
		s.redirects.Load)
	reg.GaugeFunc("qdb_server_inflight",
		"Dispatches currently executing across pipelined connections.",
		s.inflight.Load)
	reg.CounterFunc("qdb_server_shed_total",
		"Requests refused with the retryable overloaded error.",
		s.sheds.Load)
	reg.CounterFunc("qdb_server_conns_refused_total",
		"Connections dropped at the -max-conns cap.",
		s.connsRefused.Load)
	reg.GaugeFunc("qdb_server_conns",
		"Client connections currently registered.",
		func() int64 {
			s.mu.Lock()
			n := len(s.conns)
			s.mu.Unlock()
			return int64(n)
		})
	return s
}

// SetLimits tunes the data-plane backpressure knobs: the per-connection
// pipelined inflight window (binary protocol), the concurrent
// connection cap (0 = unlimited), and how long a request may queue for
// a window slot before being shed with ErrOverloaded. Zero or negative
// maxInflight/shedWait keep the defaults. Call before Serve — the
// values are read lock-free by connection loops.
func (s *Server) SetLimits(maxInflight, maxConns int, shedWait time.Duration) {
	if maxInflight > 0 {
		s.maxInflight = maxInflight
	}
	if maxConns > 0 {
		s.maxConns = maxConns
	}
	if shedWait > 0 {
		s.shedWait = shedWait
	}
}

// Sheds reports how many requests were refused with the retryable
// overloaded error (the qdb_server_shed_total counter).
func (s *Server) Sheds() int64 { return s.sheds.Load() }

// DB returns the database this server currently fronts — nil in
// follower mode. After an in-place promotion it returns the promoted
// engine, which the process owner must Close on shutdown (the follower
// path has no engine to close).
func (s *Server) DB() *quantumdb.DB {
	return s.role.Load().db
}

// shipChunk caps one repl.pull response, bounding response size and
// follower apply chunks; followers just pull again.
const shipChunk = 512

// Serve accepts connections until the listener closes (or Shutdown
// closes it). A Serve return caused by Shutdown reports ErrShuttingDown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrShuttingDown
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrShuttingDown
			}
			return err
		}
		go s.handle(conn)
	}
}

// ErrShuttingDown is returned by Serve when Shutdown closed its
// listener, and recorded in responses refused during the drain.
var ErrShuttingDown = fmt.Errorf("server: shutting down")

// ErrOverloaded is the structured retryable refusal a request receives
// when it queued longer than the shed threshold for an inflight-window
// slot. It travels with Response.Retry set, so clients back off and
// retry on the same connection instead of treating it as a hard error.
var ErrOverloaded = fmt.Errorf("server: overloaded: inflight window full")

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	s.mu.Lock()
	if s.draining || (s.maxConns > 0 && len(s.conns) >= s.maxConns) {
		refused := !s.draining
		s.mu.Unlock()
		if refused {
			s.connsRefused.Add(1)
		}
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Protocol negotiation: a binary client's very first bytes are the
	// magic preamble; a JSON-lines client's first byte is '{' (or
	// whitespace) and its first request is longer than the magic, so
	// peeking never stalls either kind. On a match the connection runs
	// the pipelined binary loop. A preamble of another protocol version
	// is told so in one line and dropped: its frames must not reach the
	// JSON decoder. Anything else stays buffered and the JSON loop reads
	// it as request text.
	br := bufio.NewReader(conn)
	peek, err := br.Peek(len(frameMagic))
	switch {
	case err == nil && string(peek) == frameMagic:
		br.Discard(len(frameMagic))
		s.handleBinary(conn, br)
	case err == nil && string(peek[:len(magicPrefix)]) == magicPrefix:
		json.NewEncoder(conn).Encode(Response{Err: fmt.Sprintf(
			"server: protocol version mismatch: this server speaks %s/%d, the client opened with %s/%d",
			magicPrefix, frameMagic[len(magicPrefix)], magicPrefix, peek[len(magicPrefix)])})
	default:
		s.handleJSON(conn, br)
	}
}

// handleJSON serves the JSON-lines protocol: strictly in-order, one
// dispatch at a time. Decoder, encoder, response buffer, and the
// Request are all per-connection, reset per request — the per-op
// allocation cost is the engine call, not the transport.
func (s *Server) handleJSON(conn net.Conn, br *bufio.Reader) {
	dec := json.NewDecoder(br)
	bw := bufio.NewWriter(conn)
	enc := json.NewEncoder(bw)
	var req Request
	for {
		req = Request{}
		if err := dec.Decode(&req); err != nil {
			return // disconnect or garbage: drop the connection
		}
		if !s.beginOp() {
			// Draining: refuse new work; in-flight dispatches on other
			// connections still complete and respond.
			enc.Encode(Response{Err: ErrShuttingDown.Error()})
			bw.Flush()
			return
		}
		start := time.Now()
		resp := s.dispatch(req)
		s.observeOp(req.Op, start)
		if resp.rows != nil {
			resp.Rows = rowsText(resp.rows)
		}
		err := enc.Encode(resp)
		if err == nil {
			err = bw.Flush()
		}
		s.endOp()
		if err != nil {
			return
		}
	}
}

// observeOp records one dispatch's latency under its verb's series
// (unknown verbs land in "other").
func (s *Server) observeOp(op string, start time.Time) {
	if h, ok := s.opHist[op]; ok {
		h.Observe(time.Since(start))
	} else {
		s.opHist["other"].Observe(time.Since(start))
	}
}

// beginOp admits one dispatch into the drain count; it refuses (false)
// once Shutdown has begun.
func (s *Server) beginOp() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

// endOp retires one dispatch, releasing Shutdown when the last
// in-flight operation (response included) finishes.
func (s *Server) endOp() {
	s.mu.Lock()
	s.active--
	if s.active == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
	s.mu.Unlock()
}

// Shutdown drains the server: it stops accepting connections and new
// requests, waits up to timeout for in-flight dispatches to finish
// writing their responses, then closes every remaining connection.
// The database itself is not closed — callers own that ordering (drain
// first, then quantumdb.DB.Close, so no engine call races teardown).
// Shutdown is idempotent; concurrent calls all wait for the drain.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	var drained chan struct{}
	if s.active > 0 {
		if s.drained == nil {
			s.drained = make(chan struct{})
		}
		drained = s.drained
	}
	ls := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		ls = append(ls, l)
	}
	s.mu.Unlock()

	if first {
		for _, l := range ls {
			l.Close()
		}
	}
	var err error
	if drained != nil {
		select {
		case <-drained:
		case <-time.After(timeout):
			err = fmt.Errorf("server: drain timed out after %v", timeout)
		}
	}
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *Server) dispatch(req Request) Response {
	r := s.role.Load()
	if !r.leader() {
		return s.dispatchFollower(r, req)
	}
	// fail wraps leader-side refusals; a demotion (this node lost a
	// fence exchange and is now read-only) rides out as a structured
	// redirect to wherever the write lease went.
	fail := func(err error) Response {
		resp := Response{Err: err.Error()}
		if errors.Is(err, core.ErrDemoted) {
			addr, term := r.db.Engine().LeaderHint()
			resp.Redirect = &Redirect{Addr: addr, Term: term}
			s.redirects.Add(1)
		}
		return resp
	}
	switch req.Op {
	case "ping":
		return Response{OK: true}
	case "lag":
		st := r.db.Stats()
		return Response{OK: true, Seq: r.db.Engine().WALSeq(),
			Applied: uint64(st.ReplicaAckSeq), Lag: uint64(st.ReplicaLag),
			Term: r.db.Engine().Term()}
	case "repl.bootstrap":
		image, seq, err := r.shipper.Bootstrap()
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Image: image, Seq: seq}
	case "repl.pull":
		s.parkPull(r, req)
		res, err := r.shipper.Pull(req.After, req.Term)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Batches: toWireBatches(res.Batches),
			Seq: res.LeaderSeq, Resync: res.Resync, Term: res.LeaderTerm}
	case "repl.fence":
		res, err := r.shipper.Fence(req.Term, req.Addr)
		if err != nil {
			return fail(err)
		}
		resp := Response{OK: true, Granted: res.Granted, Term: res.Term}
		if res.LeaderAddr != "" {
			resp.Redirect = &Redirect{Addr: res.LeaderAddr, Term: res.Term}
		}
		return resp
	case "promote":
		// Already the leader. Answering OK makes scripted failover
		// idempotent: a candidate that lost the race follows the
		// redirect here and learns the term instead of erroring out.
		return Response{OK: true, Term: r.db.Engine().Term(), Seq: r.db.Engine().WALSeq()}
	case "create":
		if req.Table == nil {
			return fail(fmt.Errorf("create requires table"))
		}
		t := req.Table
		if err := r.db.CreateTable(quantumdb.Table{
			Name: t.Name, Columns: t.Columns, Key: t.Key, Indexes: t.Indexes,
		}); err != nil {
			return fail(err)
		}
		return Response{OK: true}
	case "exec":
		if err := r.db.Exec(req.Facts); err != nil {
			return fail(err)
		}
		return Response{OK: true}
	case "txn":
		id, err := r.db.Submit(req.Txn)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, ID: id, Pending: r.db.Pending()}
	case "batch":
		if len(req.Txns) == 0 {
			return fail(fmt.Errorf("batch requires txns"))
		}
		ids, errs := r.db.SubmitBatch(req.Txns)
		for _, e := range errs {
			// A demoted leader refuses the whole batch with the usual
			// structured redirect — per-item errors are for admission
			// outcomes, not for cutover.
			if e != nil && errors.Is(e, core.ErrDemoted) {
				return fail(e)
			}
		}
		out := Response{OK: true, IDs: ids, Errs: make([]string, len(errs)),
			Pending: r.db.Pending()}
		for i, e := range errs {
			if e != nil {
				out.Errs[i] = e.Error()
			}
		}
		return out
	case "etxn":
		id, err := r.co.Submit(req.Txn, req.Tag, req.Partner)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, ID: id, Pending: r.db.Pending()}
	case "sql":
		id, err := r.db.SubmitSQL(req.Txn)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, ID: id, Pending: r.db.Pending()}
	case "read":
		rows, err := r.db.QueryRows(req.Query)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, rows: rows}
	case "snapread":
		// Collapse-free read: evaluated against a one-shot snapshot, so it
		// observes committed state only (pending transactions stay
		// superposed) and never contends with appliers.
		snap := r.db.Snapshot()
		rows, err := snap.QueryRows(req.Query)
		snap.Release()
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, rows: rows}
	case "preview":
		ids, err := r.db.Preview(req.Query)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, IDs: ids}
	case "ground":
		if err := r.db.Ground(req.ID); err != nil {
			return fail(err)
		}
		return Response{OK: true}
	case "groundall":
		if err := r.db.GroundAll(); err != nil {
			return fail(err)
		}
		return Response{OK: true}
	case "pending":
		return Response{OK: true, Pending: r.db.Pending()}
	case "stats":
		st := r.db.Stats()
		if r.fol != nil {
			// Promoted leader: fold in the follower-era counters so the
			// promotion itself stays visible in stats.
			st.Promotions = int(r.fol.Promotions())
			st.BatchesReplayed = r.fol.BatchesReplayed()
		}
		return Response{OK: true, Stats: &st}
	default:
		return fail(fmt.Errorf("unknown op %q", req.Op))
	}
}

// rowsText renders a row set as the JSON wire's quoted-string maps; an
// unbound cell is absent from its row.
func rowsText(rs *quantumdb.RowSet) []map[string]string {
	out := make([]map[string]string, rs.N)
	for i := range out {
		m := make(map[string]string, len(rs.Cols))
		for c, name := range rs.Cols {
			if v, ok := rs.Cell(i, c); ok {
				m[name] = v.Quoted()
			}
		}
		out[i] = m
	}
	return out
}
