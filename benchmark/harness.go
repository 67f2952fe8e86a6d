package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phase names the part of a run an operation belongs to. Only the
// capacity and fixed-rate phases feed metrics; warm-up belongs to set-up.
type phase uint8

const (
	phWarm     phase = iota
	phCapacity       // closed loop: each client waits for its reply
	phFixed          // open loop: request i is due at start + i/rate
	phDrain          // untimed: completes what load left half done
	nPhases
)

// Latency limits: an operation slower than its limit counts as failed
// even when its answer is right. Point operations and admissions get the
// short limit; a batch and a whole-flight scan get the long one. The
// limits sit above the worst stall the build machine's disk produced with
// the system idle (a single fsync of 200 ms now and then), so that what
// crosses them is the system's doing.
const (
	pointLimit = 500 * time.Millisecond
	bulkLimit  = time.Second
)

func latencyLimit(k opKind) time.Duration {
	switch k {
	case opBatch, opSnapScan:
		return bulkLimit
	}
	return pointLimit
}

// recorder collects one goroutine's results for one phase.
type recorder struct {
	lat       [len(opKindNames)][]int64 // ns per correct operation
	late      []int64                   // ns the generator ran behind schedule
	attempted int64
	failed    int64
	// errored counts the failed operations that returned an error, a
	// refusal or a wrong answer; overLimit those that answered correctly
	// but too late.
	errored   int64
	overLimit int64
	retries   int64
	rows      int64 // rows returned by whole-flight scans
	errs      []string
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.errored += o.errored
	r.overLimit += o.overLimit
	r.retries += o.retries
	r.rows += o.rows
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}

// of returns the sorted latencies of the given kinds.
func (r *recorder) of(kinds ...opKind) []int64 {
	var out []int64
	for _, k := range kinds {
		out = append(out, r.lat[k]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *recorder) ok() int64 { return r.attempted - r.failed }

// The operation classes the end-to-end latency metrics report.
var (
	submitKinds = []opKind{opSubmit, opETxn, opBatch, opExec} // acknowledged state changes
	readKinds   = []opKind{opRead}                            // collapsing reads
	snapKinds   = []opKind{opSnapScan, opSnapPoint}           // snapshot reads
	allKinds    = []opKind{opSubmit, opETxn, opBatch, opExec, opGround, opRead, opSnapScan, opSnapPoint}
)

// quantile of an ascending slice by nearest rank (0 when empty).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// executor performs one generated operation against the system and
// checks its answer; a non-nil error marks the operation failed.
type executor interface {
	do(client int, c *callCtx, o *op) error
}

// client is one generated request stream. Its operations are claimed in
// order; with several workers the claims overlap in flight, which is
// what a pipelined connection looks like to the server.
type client struct {
	id  int
	mu  sync.Mutex // guards gen and next
	gen generator
	// next is the index the next claimed operation gets.
	next int
	// answered[i] is set once operation i has its reply, so an operation
	// that depends on i (a read of a booking, a toggle of a seat) is
	// never sent before the system acknowledged i.
	answered []atomic.Bool
	// spent is set when the generator ran out of world capacity.
	spent atomic.Bool
}

// maxOps bounds one client's stream in one run.
const maxOps = 1 << 19

func newClient(id int, g generator, max int) *client {
	return &client{id: id, gen: g, answered: make([]atomic.Bool, max)}
}

func (c *client) claim() (o op, idx int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.claimLocked()
}

func (c *client) claimLocked() (o op, idx int, ok bool) {
	if c.next >= len(c.answered) {
		c.spent.Store(true)
		return op{}, 0, false
	}
	o, ok = c.gen.next()
	if !ok {
		c.spent.Store(true)
		return op{}, 0, false
	}
	idx = c.next
	c.next++
	return o, idx, true
}

// run executes one claimed operation. due is when an open-loop request
// was scheduled (zero for closed loops): latency is timed from then, so
// time a late generator or a busy worker made the request wait counts.
func (c *client) run(ex executor, rec *recorder, buf *spanBuf, o *op, idx int, due time.Time) {
	if o.dep >= 0 {
		for !c.answered[o.dep].Load() {
			time.Sleep(20 * time.Microsecond)
		}
	}
	start := time.Now()
	if due.IsZero() {
		due = start
	} else {
		rec.late = append(rec.late, int64(start.Sub(due)))
	}
	ctx := callCtx{buf: buf, op: int64(c.id)<<40 | int64(idx)}
	ctx.parent = buf.start("op."+o.kind.String(), ctx.op, 0)
	err := ex.do(c.id, &ctx, o)
	buf.end(ctx.parent)
	lat := time.Since(due)
	c.answered[idx].Store(true)
	rec.attempted++
	rec.retries += int64(ctx.retries)
	rec.rows += int64(ctx.rows)
	switch {
	case err != nil:
		rec.errored++
		rec.fail("client %d op %d %s: %v", c.id, idx, o.kind, err)
	case lat > latencyLimit(o.kind):
		rec.overLimit++
		rec.fail("client %d op %d %s: took %v, limit %v", c.id, idx, o.kind, lat, latencyLimit(o.kind))
	default:
		rec.lat[o.kind] = append(rec.lat[o.kind], int64(lat))
	}
}

// load is a set of clients driven through phases against one executor.
type load struct {
	ex      executor
	clients []*client
	tr      *tracer
	// recs[phase] accumulates every worker's results.
	recs [nPhases]recorder
	mu   sync.Mutex
	// maintain, when set, runs after every maintainEvery-th operation of
	// client 0's first caller in a closed loop: background work triggered
	// by an operation count, not a timer, so its schedule repeats.
	maintain      func() error
	maintainEvery int
}

func (l *load) collect(ph phase, r *recorder) {
	l.mu.Lock()
	l.recs[ph].merge(r)
	l.mu.Unlock()
}

// spent reports whether any client ran out of generated work.
func (l *load) spent() bool {
	for _, c := range l.clients {
		if c.spent.Load() {
			return true
		}
	}
	return false
}

// closedOps runs n operations per client, one at a time (warm-up and
// drain).
func (l *load) closedOps(ph phase, n int) {
	l.closed(ph, 1, func(done int) bool { return done >= n })
}

// closedFor runs a closed loop for d: each of a client's callers sends
// its next request only after its previous one was answered, so a slow
// system receives less load. Returns wall time.
func (l *load) closedFor(ph phase, d time.Duration, callers int) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	l.closed(ph, callers, func(int) bool { return !time.Now().Before(deadline) })
	return time.Since(start)
}

func (l *load) closed(ph phase, callers int, stop func(done int) bool) {
	var wg sync.WaitGroup
	for _, c := range l.clients {
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func(c *client, first bool) {
				defer wg.Done()
				var rec recorder
				buf := l.tr.buf()
				for done := 0; !stop(done); done++ {
					o, idx, ok := c.claim()
					if !ok {
						break
					}
					c.run(l.ex, &rec, buf, &o, idx, time.Time{})
					if l.maintain != nil && c.id == 0 && first && (done+1)%l.maintainEvery == 0 {
						if err := l.maintain(); err != nil {
							rec.errored++
							rec.fail("maintenance: %v", err)
						}
					}
				}
				l.collect(ph, &rec)
			}(c, w == 0)
		}
	}
	wg.Wait()
}

// openFor runs an open loop: the clients together send rate requests per
// second for d, request i of a client due at start + i/(rate/clients),
// whether or not earlier ones were answered, with up to workers requests
// of one client in flight. keepGoing, when non-nil, extends the loop past
// d at the same rate until it returns false. Returns the requests sent
// and the wall time.
func (l *load) openFor(ph phase, rate float64, d time.Duration, workers int, keepGoing func() bool) (int64, time.Duration) {
	start := time.Now()
	interval := time.Duration(float64(time.Second) * float64(len(l.clients)) / rate)
	var sent atomic.Int64
	var wg sync.WaitGroup
	for _, c := range l.clients {
		slot := new(int64) // schedule slot of the next claim, guarded by c.mu
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				var rec recorder
				buf := l.tr.buf()
				for {
					// Slot and operation are claimed together, so that
					// operations are due in generation order and nothing
					// is generated that will not be sent.
					c.mu.Lock()
					due := start.Add(time.Duration(*slot) * interval)
					if due.Sub(start) >= d && (keepGoing == nil || !keepGoing()) {
						c.mu.Unlock()
						break
					}
					o, idx, ok := c.claimLocked()
					*slot++
					c.mu.Unlock()
					if !ok {
						break
					}
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
					c.run(l.ex, &rec, buf, &o, idx, due)
					sent.Add(1)
				}
				l.collect(ph, &rec)
			}(c)
		}
	}
	wg.Wait()
	return sent.Load(), time.Since(start)
}
