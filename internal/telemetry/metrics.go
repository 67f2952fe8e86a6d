// Package telemetry is the engine's dependency-free observability
// layer: a metrics registry of counters and gauges read from the
// engine's own atomics, lock-free log-spaced latency histograms, a stack-allocated Span stage timer for
// per-op tracing, a threshold-gated slow-op ring buffer, and exposition
// in Prometheus text format and JSON over HTTP. Everything is stdlib
// only and built so the record path costs a handful of atomic adds: the
// engine keeps its instrumentation on permanently instead of toggling
// it for debugging sessions.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered series: a scalar read function or a
// histogram, plus the exposition metadata.
type metric struct {
	name   string // family name, e.g. qdb_submitted_total
	labels string // rendered label pairs, e.g. `op="submit",stage="solve"`; "" for none
	help   string
	kind   metricKind
	scale  float64 // histogram value multiplier at exposition (1e-9: ns -> s)
	read   func() int64
	hist   *Histogram
}

// Registry holds every registered metric. Registration happens at
// construction time (engine startup) under a mutex; the hot path only
// touches the already-registered atomics, never the registry itself.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	seen    map[string]bool // name+labels, to reject duplicates
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]bool)}
}

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := m.name + "{" + m.labels + "}"
	if r.seen[key] {
		panic(fmt.Sprintf("telemetry: duplicate metric %s", key))
	}
	r.seen[key] = true
	r.metrics = append(r.metrics, m)
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time. This is how the engine's atomics fold into the
// registry without moving: the atomic stays the single source of truth
// and the registry just reads it. Counter names should end in _total
// per Prometheus convention; the name is exposed exactly as given.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(&metric{name: name, help: help, kind: kindCounter, read: fn})
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, read: fn})
}

// Histogram registers a histogram with the given value scale applied at
// exposition (bucket bounds and sum are multiplied by scale). labels is
// a pre-rendered Prometheus label body like `op="submit"` or "" for
// none; several histograms may share a family name with distinct
// labels.
func (r *Registry) Histogram(name, labels, help string, scale float64) *Histogram {
	h := &Histogram{}
	r.register(&metric{name: name, labels: labels, help: help,
		kind: kindHistogram, scale: scale, hist: h})
	return h
}

// Seconds registers a nanosecond-recording histogram exposed in
// seconds — the shape every latency series in the engine uses.
func (r *Registry) Seconds(name, labels, help string) *Histogram {
	return r.Histogram(name, labels, help, 1e-9)
}

// Names returns the distinct metric family names in registration
// order. The CI metrics-smoke test diffs this against a live /metrics
// scrape, so a series silently dropped by a refactor fails the build.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	prev := make(map[string]bool)
	for _, m := range r.metrics {
		if !prev[m.name] {
			prev[m.name] = true
			names = append(names, m.name)
		}
	}
	return names
}

// HistogramExport is one histogram series with its snapshot, as
// returned by Histograms for render surfaces (qdbcli metrics, bench
// artifacts) that want quantiles rather than exposition text.
type HistogramExport struct {
	Name   string
	Labels string
	Scale  float64
	Snap   HistSnapshot
}

// Histograms snapshots every registered histogram, sorted by
// name+labels for stable rendering.
func (r *Registry) Histograms() []HistogramExport {
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	var out []HistogramExport
	for _, m := range ms {
		if m.kind != kindHistogram {
			continue
		}
		out = append(out, HistogramExport{
			Name: m.name, Labels: m.labels, Scale: m.scale, Snap: m.hist.Snapshot(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// FindHistogram returns the snapshot of the series with the given name
// and labels, and whether it exists.
func (r *Registry) FindHistogram(name, labels string) (HistSnapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		if m.kind == kindHistogram && m.name == name && m.labels == labels {
			return m.hist.Snapshot(), true
		}
	}
	return HistSnapshot{}, false
}

// snapshotMetrics copies the metric list for an exposition pass.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	return ms
}

// UptimeGauges registers the standard process-identity series:
// <prefix>_process_start_time_seconds (wall clock, for restart
// detection by scrapers) and <prefix>_uptime_seconds (monotonic, for
// rate windows). start should be the process/engine construction time.
func (r *Registry) UptimeGauges(prefix string, start time.Time) {
	r.GaugeFunc(prefix+"_process_start_time_seconds",
		"Unix time the engine instance started; changes on restart.",
		func() int64 { return start.Unix() })
	r.GaugeFunc(prefix+"_uptime_seconds",
		"Seconds since the engine instance started (monotonic clock).",
		func() int64 { return int64(time.Since(start).Seconds()) })
}
