package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share op_id; parent is the id of the enclosing span (0: none).
// Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Op     int64  `json:"op_id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// counterSnap is a set of layer counters read at a phase boundary.
type counterSnap struct {
	Workload string             `json:"workload"`
	At       string             `json:"at"`
	Ns       int64              `json:"ns"`
	Counters map[string]float64 `json:"counters"`
}

// tracer keeps spans in memory, one buffer per recording goroutine, and
// writes them out only when the benchmark ends. Recording is switched on
// for the traced part of a run only, so the same run also measures what
// tracing costs.
type tracer struct {
	workload string
	t0       time.Time
	on       atomic.Bool
	mu       sync.Mutex
	bufs     []*spanBuf
	snap     []counterSnap
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanBuf is one goroutine's span list; nil when the run is untraced, so
// every method is nil-safe and costs one branch.
type spanBuf struct {
	tr    *tracer
	base  int64
	spans []span
}

func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{tr: t, base: int64(len(t.bufs)+1) << 32}
	t.bufs = append(t.bufs, b)
	return b
}

// active reports whether spans are being recorded right now.
func (b *spanBuf) active() bool { return b != nil && b.tr.on.Load() }

// start opens a span and returns its id, or 0 when not recording.
func (b *spanBuf) start(name string, op, parent int64) int64 {
	if !b.active() {
		return 0
	}
	id := b.base + int64(len(b.spans)) + 1
	b.spans = append(b.spans, span{ID: id, Name: name, Op: op, Parent: parent, Start: int64(time.Since(b.tr.t0))})
	return id
}

func (b *spanBuf) end(id int64) {
	if id == 0 {
		return
	}
	b.spans[id-b.base-1].End = int64(time.Since(b.tr.t0))
}

func (t *tracer) counters(workload, at string, c map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.snap = append(t.snap, counterSnap{Workload: workload, At: at, Ns: int64(time.Since(t.t0)), Counters: c})
	t.mu.Unlock()
}

// all returns every finished span. Call only after recording goroutines
// have stopped.
func (t *tracer) all() []span {
	var out []span
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.End != 0 {
				out = append(out, s)
			}
		}
	}
	return out
}

// spanStat summarises the spans of one name. Self time is a span's
// duration minus the part its child spans cover.
type spanStat struct {
	n       int
	durs    []int64
	totalNs int64
	selfNs  int64
}

func spanStats(spans []span) map[string]*spanStat {
	child := make(map[int64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.n++
		st.durs = append(st.durs, d)
		st.totalNs += d
		st.selfNs += d - child[s.ID]
	}
	return out
}

// median span duration in microseconds (0 when the span never ran).
func (s *spanStat) p50us() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	sort.Slice(s.durs, func(i, j int) bool { return s.durs[i] < s.durs[j] })
	return float64(quantile(s.durs, 0.5)) / 1e3
}

// writeTraces writes every traced run's snapshots and spans to one file.
func writeTraces(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, c := range t.snap {
			if err == nil {
				err = enc.Encode(c)
			}
		}
		for _, s := range t.all() {
			if err == nil {
				err = enc.Encode(struct {
					Workload string `json:"workload"`
					span
				}{t.workload, s})
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
