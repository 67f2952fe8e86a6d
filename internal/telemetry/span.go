package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// MaxStages bounds the per-span stage array so a Span stays a fixed-
// size stack value: no slice header, no append, no heap.
const MaxStages = 8

// Tracer times one operation kind (submit, ground, read, ...): an
// overall latency histogram plus one histogram per named stage, and an
// optional shared slow-op ring. Construct once at engine startup via
// Registry.Tracer; Start a Span per operation.
type Tracer struct {
	op     string
	total  *Histogram
	stages [MaxStages]*Histogram
	names  []string
	slow   *SlowLog
}

// Tracer registers an op tracer: <name>{op=<op>} for the overall
// latency and <stageName>{op=<op>,stage=<s>} per stage, all in seconds.
// slow may be nil to disable slow-op capture for this op.
func (r *Registry) Tracer(name, stageName, op, help string, stages []string, slow *SlowLog) *Tracer {
	if len(stages) > MaxStages {
		panic("telemetry: too many stages for tracer " + op)
	}
	t := &Tracer{op: op, names: stages, slow: slow}
	t.total = r.Seconds(name, `op="`+op+`"`, help)
	for i, s := range stages {
		t.stages[i] = r.Seconds(stageName, `op="`+op+`",stage="`+s+`"`,
			"Time spent in one stage of the operation.")
	}
	return t
}

// Op returns the operation name the tracer was registered under.
func (t *Tracer) Op() string { return t.op }

// Span is a per-operation stage timer. It is a plain value: callers
// keep it on the stack (var sp = tr.Start(); defer is fine since the
// method set is on *Span and the address of a stack variable passed to
// non-escaping calls stays on the stack). All methods are nil-receiver
// safe so call sites shared between traced and untraced paths can pass
// a nil *Span.
type Span struct {
	tr   *Tracer
	t0   time.Time
	mark time.Time
	vals [MaxStages]int64
}

// Start begins a span now.
func (t *Tracer) Start() Span {
	now := time.Now()
	return Span{tr: t, t0: now, mark: now}
}

// Mark resets the stage clock without recording — call at the top of a
// retry loop so a stage doesn't absorb the previous iteration.
func (s *Span) Mark() {
	if s == nil || s.tr == nil {
		return
	}
	s.mark = time.Now()
}

// Stage records the time since the last Stage/Mark/Start into stage i
// and restarts the stage clock. A stage may be recorded several times
// per span (retry loops); the histogram sees each execution and the
// slow-op record sees the sum.
func (s *Span) Stage(i int) {
	if s == nil || s.tr == nil {
		return
	}
	now := time.Now()
	d := now.Sub(s.mark)
	s.mark = now
	s.tr.stages[i].Observe(d)
	s.vals[i] += int64(d)
}

// Add records an explicitly measured duration into stage i without
// touching the stage clock — for sub-phases timed by a callee (WAL
// append inside the install critical section) that overlap an enclosing
// stage.
func (s *Span) Add(i int, d time.Duration) {
	if s == nil || s.tr == nil {
		return
	}
	s.tr.stages[i].Observe(d)
	s.vals[i] += int64(d)
}

// End records the overall latency and, when the slow-op ring is armed
// and the span crossed its threshold, captures the stage breakdown.
// The disabled path is one atomic load past the histogram record.
func (s *Span) End() {
	if s == nil || s.tr == nil {
		return
	}
	total := time.Since(s.t0)
	s.tr.total.Observe(total)
	if l := s.tr.slow; l != nil {
		if th := l.threshold.Load(); th > 0 && int64(total) >= th {
			l.record(s.tr, total, &s.vals)
		}
	}
}

// SlowLog is a bounded ring buffer of slow-op records, shared by every
// tracer in an engine. Disabled by default (threshold 0); arming it
// costs in-flight ops one atomic load each, and only ops over the
// threshold take the ring mutex.
type SlowLog struct {
	threshold atomic.Int64 // ns; 0 disables capture
	mu        sync.Mutex
	recs      []slowRec
	next      int
	total     int64 // records ever captured (ring may have evicted some)
}

type slowRec struct {
	tr    *Tracer
	unix  int64
	total int64
	vals  [MaxStages]int64
	set   bool
}

// NewSlowLog returns a ring holding up to n records (min 1).
func NewSlowLog(n int) *SlowLog {
	if n < 1 {
		n = 1
	}
	return &SlowLog{recs: make([]slowRec, n)}
}

// SetThreshold arms (d > 0) or disarms (d <= 0) slow-op capture.
func (l *SlowLog) SetThreshold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.threshold.Store(int64(d))
}

// Threshold returns the current capture threshold (0 = disabled).
func (l *SlowLog) Threshold() time.Duration {
	return time.Duration(l.threshold.Load())
}

// record is alloc-free: it copies fixed-size values into a
// preallocated slot.
func (l *SlowLog) record(tr *Tracer, total time.Duration, vals *[MaxStages]int64) {
	unix := time.Now().UnixNano()
	l.mu.Lock()
	r := &l.recs[l.next]
	r.tr = tr
	r.unix = unix
	r.total = int64(total)
	r.vals = *vals
	r.set = true
	l.next = (l.next + 1) % len(l.recs)
	l.total++
	l.mu.Unlock()
}

// SlowOp is one captured slow operation, oldest-first from Dump.
type SlowOp struct {
	Op      string           `json:"op"`
	Time    time.Time        `json:"time"`
	TotalNs int64            `json:"total_ns"`
	Stages  map[string]int64 `json:"stages_ns,omitempty"`
}

// Dump returns the retained records, oldest first.
func (l *SlowLog) Dump() []SlowOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowOp, 0, len(l.recs))
	n := len(l.recs)
	for i := 0; i < n; i++ {
		r := &l.recs[(l.next+i)%n]
		if !r.set {
			continue
		}
		op := SlowOp{
			Op:      r.tr.op,
			Time:    time.Unix(0, r.unix),
			TotalNs: r.total,
		}
		for j, name := range r.tr.names {
			if r.vals[j] > 0 {
				if op.Stages == nil {
					op.Stages = make(map[string]int64, len(r.tr.names))
				}
				op.Stages[name] = r.vals[j]
			}
		}
		out = append(out, op)
	}
	return out
}

// Captured returns how many slow ops have ever been recorded.
func (l *SlowLog) Captured() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// WriteJSON dumps the ring as a JSON document.
func (l *SlowLog) WriteJSON(w io.Writer) error {
	doc := struct {
		ThresholdNs int64    `json:"threshold_ns"`
		Captured    int64    `json:"captured"`
		Records     []SlowOp `json:"records"`
	}{
		ThresholdNs: l.threshold.Load(),
		Captured:    l.Captured(),
		Records:     l.Dump(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
