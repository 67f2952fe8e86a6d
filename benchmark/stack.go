package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	quantumdb "repro"
	"repro/internal/replica"
	"repro/internal/server"
)

// workloadDef is everything that tells one workload from another: the
// world, the engine options, how clients reach the system, and the
// traffic they generate.
type workloadDef struct {
	name string
	why  string
	spec worldSpec
	// k is the per-partition bound on pending transactions (0: engine
	// default). wal turns on the write-ahead log with an fsync per
	// acknowledged commit unit and two segments.
	k   int
	wal bool
	// wire serves the engine from an in-process server on a loopback
	// listener and drives it over pipelined binary connections; follower
	// adds a log-shipped replica.
	wire, follower bool
	clients        int
	// callers is how many requests one client keeps in flight in the
	// capacity phase, each caller waiting for its reply before it sends
	// again; workers bounds the requests one client has in flight in the
	// fixed-rate phase. Both are 1 for embedded callers, which block.
	callers, workers int
	// rate is the fixed-rate phase's total request rate, set to about
	// half the capacity measured on the build machine. It is a constant:
	// deriving it at run time would let a slower system lower its own
	// bar.
	rate float64
	// warmOps is the closed-loop warm-up per client, part of set-up.
	warmOps int
	gen     func(seed int64, client int, d *workloadDef) generator
	// ckptEvery runs a checkpoint after every n-th operation of client 0
	// in the capacity phase (0: never): an operation count, not a timer,
	// so the schedule is the same on every run. ckptBetweenPhases runs
	// one more after the capacity phase, outside any timed window, so the
	// fixed-rate phase starts from a short log. The fixed-rate phase has
	// none: under the gate a checkpoint stalls every request for its
	// whole duration, and latencies would measure the gate.
	ckptEvery         int
	ckptBetweenPhases bool
	// crashImage cuts a copy of the log while clients run and recovers
	// from it (durable_commit).
	crashImage bool
	// gate makes the clients keep requests that pin a store snapshot
	// (collapsing reads, snapshot reads, checkpoints) from overlapping
	// any other request. It works around an engine deadlock present at
	// the commit this benchmark was defined on: relstore.DB.Snapshot and
	// Snapshot.Release take the store mutex exclusively while a
	// concurrent chain solve re-enters its read lock from inside a scan
	// callback, and Go's RWMutex blocks a nested reader behind a waiting
	// writer. Without the gate durable_commit hangs within seconds. A
	// benchmark-only change should drop the gate once the engine is
	// fixed; admissions, blind writes and grounds still overlap freely.
	gate bool
	// atRefSpeed converts the three timing gates to the reference machine
	// speed (machine.go).
	atRefSpeed bool
	// probeQuery is the snapshot read the wire-overhead probe sends both
	// over the wire and embedded.
	probeQuery string
}

// clientModel is what one client knows to be true from the answers it
// got; the final checks compare the database against it.
type clientModel struct {
	mu       sync.Mutex
	ids      map[string]int64 // user -> transaction id, acknowledged bookings
	flights  map[string]int
	ackNs    map[string]int64 // user -> when the admission was acknowledged
	observed map[string]string
	seenNs   map[string]int64 // user -> when a read first showed its seat
	seats    []seatAck
	partner  map[string]string // entangled user -> coordination partner
	// textBytes is the size of every acknowledged transaction and fact
	// text: the user data write amplification is measured against.
	textBytes int64
}

// seatAck is one acknowledged blind write on the Available relation.
type seatAck struct {
	flight int
	insert bool
	ackNs  int64
}

func newClientModel() *clientModel {
	return &clientModel{ids: map[string]int64{}, flights: map[string]int{}, ackNs: map[string]int64{},
		observed: map[string]string{}, seenNs: map[string]int64{}, partner: map[string]string{}}
}

// stack is one running instance of the system under test plus the
// clients' models of it.
type stack struct {
	def    *workloadDef
	traced bool
	t0     time.Time
	dir    string // WAL, checkpoint and crash-image files
	db     *quantumdb.DB
	tps    []transport
	models []*clientModel

	srv    *server.Server
	ln     *countingListener
	replLn net.Listener
	pipes  []*server.PipeClient

	fol         *replica.Follower
	folStop     chan struct{}
	folDone     chan struct{}
	bootstrapMs float64
	lagMu       sync.Mutex
	lag         []int64 // leader log position minus replica's, sampled under load

	gate sync.RWMutex // see workloadDef.gate

	// ckptMu keeps a checkpoint and a crash-image copy from overlapping:
	// a real crash freezes every file at one instant, which a copy made
	// while a checkpoint swaps files underneath it would not.
	ckptMu      sync.Mutex
	checkpoints int
	ckptNs      []int64
	// WAL byte accounting across truncations (file sizes sampled around
	// each checkpoint).
	walWritten, walTruncated, ckptBytes int64
	walLastSize                         int64
}

func (d *workloadDef) options(dir string) quantumdb.Options {
	opt := quantumdb.Options{K: d.k}
	if d.wal {
		opt.WALPath = filepath.Join(dir, "wal")
		opt.SyncWAL = true
		opt.WALSegments = 2
	}
	return opt
}

// start builds the world, boots the system and dials the clients. It
// does not warm up; set-up time covers both.
func start(def *workloadDef, traced bool, tr *tracer) (*stack, error) {
	s := &stack{def: def, traced: traced, t0: time.Now()}
	if def.wal {
		dir, err := os.MkdirTemp("", "qdb-benchmark-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
	}
	db, err := openEngine(buildStore(def.spec), def.options(s.dir))
	if err != nil {
		s.stop()
		return nil, err
	}
	s.db = db
	for i := 0; i < def.clients; i++ {
		s.models = append(s.models, newClientModel())
	}
	if !def.wire {
		tp := newEmbedded(db, traced)
		for i := 0; i < def.clients; i++ {
			s.tps = append(s.tps, tp)
		}
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.ln = &countingListener{Listener: ln}
	s.srv = server.New(db)
	go s.srv.Serve(s.ln)
	for i := 0; i < def.clients; i++ {
		p, err := server.DialPipe(ln.Addr().String())
		if err != nil {
			s.stop()
			return nil, err
		}
		s.pipes = append(s.pipes, p)
		s.tps = append(s.tps, &wire{pipe: p})
	}
	if def.follower {
		// Replication gets its own listener so that client byte counts
		// are not mixed with shipped log.
		if s.replLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			s.stop()
			return nil, err
		}
		go s.srv.Serve(s.replLn)
		s.fol = replica.NewFollower(&server.ReplicaClient{Addr: s.replLn.Addr().String(), Wait: 100 * time.Millisecond})
		t := time.Now()
		if err := s.fol.Bootstrap(); err != nil {
			s.stop()
			return nil, err
		}
		s.bootstrapMs = float64(time.Since(t)) / 1e6
		s.folStop, s.folDone = make(chan struct{}), make(chan struct{})
		go s.follow(tr.buf())
	}
	return s, nil
}

// follow is the replica's pull loop: each round long-polls the leader
// for log above the applied watermark and replays it.
func (s *stack) follow(buf *spanBuf) {
	defer close(s.folDone)
	for {
		select {
		case <-s.folStop:
			return
		default:
		}
		id := buf.start("replica.sync", 0, 0)
		_, err := s.fol.Sync()
		buf.end(id)
		if err != nil {
			time.Sleep(5 * time.Millisecond) // the leader is draining; try again
		}
	}
}

// stop tears the instance down and removes its files. Safe on a
// partially started stack.
func (s *stack) stop() {
	if s.folStop != nil {
		close(s.folStop)
		<-s.folDone
	}
	for _, p := range s.pipes {
		p.Close()
	}
	if s.srv != nil {
		s.srv.Shutdown(2 * time.Second)
	}
	if s.db != nil {
		s.db.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (s *stack) sinceStart() int64 { return int64(time.Since(s.t0)) }

// do performs one generated operation and checks the answer against the
// generator's model. It implements executor.
func (s *stack) do(cl int, c *callCtx, o *op) error {
	tp, m := s.tps[cl], s.models[cl]
	if s.fol != nil && cl == 0 && c.op%lagEvery == 0 {
		lag := int64(s.db.Engine().WALSeq()) - int64(s.fol.AppliedSeq())
		s.lagMu.Lock()
		s.lag = append(s.lag, lag)
		s.lagMu.Unlock()
	}
	if s.def.gate {
		// See workloadDef.gate: snapshot-taking requests run alone.
		switch o.kind {
		case opRead, opSnapPoint, opSnapScan:
			s.gate.Lock()
			defer s.gate.Unlock()
		default:
			s.gate.RLock()
			defer s.gate.RUnlock()
		}
	}
	switch o.kind {
	case opSubmit:
		id, err := tp.submit(c, o.text)
		if err != nil {
			return err
		}
		m.acked(o.tag, o.flight, id, len(o.text), s.sinceStart())
	case opETxn:
		id, err := tp.etxn(c, o.text, o.tag, o.partner)
		if err != nil {
			return err
		}
		m.acked(o.tag, o.flight, id, len(o.text), s.sinceStart())
		m.mu.Lock()
		m.partner[o.tag] = o.partner
		m.mu.Unlock()
	case opBatch:
		ids, errs, err := tp.batch(c, o.texts)
		if err != nil {
			return err
		}
		if len(ids) != len(o.texts) {
			return fmt.Errorf("batch of %d answered %d ids", len(o.texts), len(ids))
		}
		for i, e := range errs {
			if e != "" {
				return fmt.Errorf("batch member %d refused: %s", i, e)
			}
		}
		now := s.sinceStart()
		for i, u := range o.users {
			m.acked(u, o.flights[i], ids[i], len(o.texts[i]), now)
		}
	case opExec:
		if err := tp.exec(c, o.text); err != nil {
			return err
		}
		m.mu.Lock()
		m.seats = append(m.seats, seatAck{flight: o.flight, insert: o.insert, ackNs: s.sinceStart()})
		m.textBytes += int64(len(o.text))
		m.mu.Unlock()
	case opGround:
		m.mu.Lock()
		id, ok := m.ids[o.tag]
		m.mu.Unlock()
		if !ok {
			return fmt.Errorf("ground of %s: its admission was never acknowledged", o.tag)
		}
		// A target the k-bound or a read collapsed first answers "already
		// grounded", which is correct.
		if _, err := tp.ground(c, id); err != nil {
			return err
		}
	case opRead, opSnapPoint:
		read := tp.read
		if o.kind == opSnapPoint {
			read = tp.snapread
		}
		n, seat, err := read(c, o.text)
		if err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("%s returned %d rows, want 1", o.text, n)
		}
		if o.seat != "" && seat != o.seat {
			return fmt.Errorf("%s returned seat %s, want %s", o.text, seat, o.seat)
		}
		if o.kind == opRead && o.seat == "" {
			m.mu.Lock()
			prev, seen := m.observed[o.tag]
			if !seen {
				m.observed[o.tag], m.seenNs[o.tag] = seat, s.sinceStart()
			}
			m.mu.Unlock()
			if seen && prev != seat {
				return fmt.Errorf("read of %s not repeatable: %s then %s", o.tag, prev, seat)
			}
		}
	case opSnapScan:
		n, _, err := tp.snapread(c, o.text)
		if err != nil {
			return err
		}
		// One writer per flight toggles one extra seat.
		if want := s.def.spec.seatsPerFlight(); n < want || n > want+1 {
			return fmt.Errorf("%s returned %d rows, want %d or %d", o.text, n, want, want+1)
		}
		c.rows += n
	}
	return nil
}

func (m *clientModel) acked(user string, flight int, id int64, textLen int, now int64) {
	m.mu.Lock()
	m.ids[user] = id
	m.flights[user] = flight
	m.ackNs[user] = now
	m.textBytes += int64(textLen)
	m.mu.Unlock()
}

// walSize sums the WAL segment files.
func (s *stack) walSize() int64 {
	var n int64
	paths, _ := filepath.Glob(filepath.Join(s.dir, "wal*"))
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			n += st.Size()
		}
	}
	return n
}

func (s *stack) checkpointPath() string { return filepath.Join(s.dir, "checkpoint") }

// checkpoint runs one fuzzy checkpoint and accounts the bytes it wrote
// and the log it truncated.
func (s *stack) checkpoint(c *callCtx) error {
	if s.def.gate {
		s.gate.Lock()
		defer s.gate.Unlock()
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	before := s.walSize()
	t := time.Now()
	id := c.span("core.checkpoint")
	err := s.db.Engine().Checkpoint(s.checkpointPath())
	c.buf.end(id)
	if err != nil {
		return err
	}
	s.ckptNs = append(s.ckptNs, int64(time.Since(t)))
	after := s.walSize()
	s.walWritten += before - s.walLastSize
	if before > after {
		s.walTruncated += before - after
	}
	s.walLastSize = after
	if st, err := os.Stat(s.checkpointPath()); err == nil {
		s.ckptBytes += st.Size()
	}
	s.checkpoints++
	return nil
}

// walTotals closes the WAL byte accounting at the end of load.
func (s *stack) walTotals() (written, truncated, ckpt int64) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.walWritten + s.walSize() - s.walLastSize, s.walTruncated, s.ckptBytes
}

// expect merges the clients' models into one expectation. Operations
// acknowledged after cutNs (0: no cut) are only possibly present.
func (s *stack) expect(cutNs int64) (*expectation, [][2]string) {
	e := newExpectation(s.def.spec)
	var pairs [][2]string
	for _, m := range s.models {
		m.mu.Lock()
		for u, f := range m.flights {
			if cutNs == 0 || m.ackNs[u] < cutNs {
				e.users[u] = f
			} else {
				e.maybeUsers[u] = f
			}
		}
		for u, seat := range m.observed {
			if cutNs == 0 || m.seenNs[u] < cutNs {
				e.observed[u] = seat
			}
		}
		for _, a := range m.seats {
			d := 1
			if !a.insert {
				d = -1
			}
			if cutNs == 0 || a.ackNs < cutNs {
				e.netSeats[a.flight] += d
			} else {
				e.maybeSeats[a.flight] += d
			}
		}
		// A pair counts once both members were admitted.
		for u, p := range m.partner {
			if _, ok := m.ids[p]; ok && u < p {
				pairs = append(pairs, [2]string{u, p})
			}
		}
		m.mu.Unlock()
	}
	return e, pairs
}

// waitFollower blocks until the replica has applied everything the
// leader logged, then stops the pull loop.
func (s *stack) waitFollower() (catchUp time.Duration, err error) {
	t := time.Now()
	target := s.db.Engine().WALSeq()
	for s.fol.AppliedSeq() < target {
		if time.Since(t) > 20*time.Second {
			return 0, fmt.Errorf("follower stuck at seq %d, leader at %d", s.fol.AppliedSeq(), target)
		}
		time.Sleep(200 * time.Microsecond)
	}
	catchUp = time.Since(t)
	close(s.folStop)
	<-s.folDone
	s.folStop = nil
	return catchUp, nil
}

// replicaDiff compares the follower's store with the leader's, byte for
// byte, both quiesced at the same log position.
func (s *stack) replicaDiff() (string, error) {
	var leader, follower bytes.Buffer
	snap := s.db.Engine().Store().Snapshot()
	err := snap.Encode(&leader)
	snap.Release()
	if err != nil {
		return "", err
	}
	if err := s.fol.State().EncodeState(&follower); err != nil {
		return "", err
	}
	return compareReplica(leader.Bytes(), follower.Bytes()), nil
}
