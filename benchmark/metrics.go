package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// decl declares one metric: BENCHMARK.json lists exactly these names.
type decl struct {
	name, unit, better string
}

// endToEnd are what a user of the system sees, and the gates later
// changes are held to. Every one exists on every workload and is never
// zero. ops_per_s is correct operations per second of the capacity phase
// (the whole run on paper_mixed); op_p50_us is the median latency of all
// requests of the fixed-rate phase, timed from the moment each was due
// (closed loop on paper_mixed, which has one blocking caller); ok_share
// is 1 - failed/attempted; coordination_ratio is the share of admitted
// entangled pairs seated adjacent after the final GroundAll (see
// coordinationRatio), the guard against getting faster by collapsing
// early. Latency by operation class and every tail are per-layer metrics:
// their run-to-run spread on the build machine was too wide to gate on
// (see the README).
var endToEnd = []decl{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"ok_share", "ratio", "higher"},
	{"coordination_ratio", "ratio", "higher"},
}

// perLayer are measured in the traced run: spans around the calls into
// each layer, engine and log counters over the measured phases, socket
// byte counts, and probes run on inputs sampled from the workload. A
// layer a workload does not exercise reports 0.
var perLayer = []decl{
	// Latency by operation class (submit: every acknowledged state
	// change; read: collapsing reads; snapread: snapshot reads) and the
	// tails, fixed-rate phase.
	{"latency.op_p99_us", "us", "lower"},
	{"latency.submit_p50_us", "us", "lower"},
	{"latency.submit_p99_us", "us", "lower"},
	{"latency.submit_p999_us", "us", "lower"},
	{"latency.read_p50_us", "us", "lower"},
	{"latency.read_p99_us", "us", "lower"},
	{"latency.read_p999_us", "us", "lower"},
	{"latency.snapread_p50_us", "us", "lower"},
	{"latency.snapread_p99_us", "us", "lower"},
	{"latency.snapread_p999_us", "us", "lower"},
	{"latency.over_limit", "count", "lower"},
	{"generator.lateness_p99_us", "us", "lower"},
	{"generator.achieved_rate_ratio", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "higher"},
	// The machine's speed while the instance ran, over refNominal.
	{"machine.speed_ratio", "ratio", "higher"},

	{"server.ping_rtt_us", "us", "lower"},
	{"server.wire_overhead_us", "us", "lower"},
	{"server.resp_bytes_per_row", "bytes", "lower"},
	{"server.req_bytes_per_op", "bytes", "lower"},
	{"server.sheds", "count", "lower"},
	{"server.retries", "count", "lower"},
	{"server.batch_txn_us", "us", "lower"},
	{"server.single_txn_us", "us", "lower"},

	{"txn.parse_us", "us", "lower"},

	{"core.submit_us", "us", "lower"},
	{"core.read_us", "us", "lower"},
	{"core.ground_us", "us", "lower"},
	{"core.write_us", "us", "lower"},
	{"core.groundall_ms", "ms", "lower"},
	{"core.checkpoint_ms", "ms", "lower"},
	{"core.checkpoint_pause_us", "us", "lower"},
	{"core.checkpoints", "count", "higher"},
	{"core.cache_hit_ratio", "ratio", "higher"},
	{"core.prep_hit_ratio", "ratio", "higher"},
	{"core.negative_hits", "count", "higher"},
	{"core.replay_ratio", "ratio", "higher"},
	{"core.admission_conflict_ratio", "ratio", "lower"},
	{"core.serial_fallbacks", "count", "lower"},
	{"core.lock_waits", "count", "lower"},
	{"core.forced_by_k", "count", "lower"},
	{"core.forced_by_read", "count", "lower"},
	{"core.max_partition_pending", "count", "lower"},
	{"core.semantic_fallbacks", "count", "lower"},
	{"core.coordination_ratio", "ratio", "higher"},
	{"sched.parallel_solves", "count", "higher"},

	{"formula.solve_chain_us", "us", "lower"},
	{"formula.solves_per_submit", "ratio", "lower"},

	{"relstore.scan_ns_per_row", "ns", "lower"},
	{"relstore.point_lookup_ns", "ns", "lower"},
	{"relstore.snapshot_pin_ns", "ns", "lower"},
	{"relstore.apply_us", "us", "lower"},
	{"relstore.cow_clone_us", "us", "lower"},

	{"wal.appends", "count", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.group_commits", "count", "higher"},
	{"wal.fsyncs_per_ack", "ratio", "lower"},
	{"wal.bytes_per_op", "bytes", "lower"},
	{"wal.checkpoint_bytes", "bytes", "lower"},
	{"wal.truncated_bytes", "bytes", "higher"},
	{"wal.write_amp", "ratio", "lower"},
	{"wal.append_sync_us", "us", "lower"},
	{"wal.recover_s", "s", "lower"},
	{"wal.replay_us_per_batch", "us", "lower"},
	{"wal.recovered_batches", "count", "lower"},

	{"replica.bootstrap_ms", "ms", "lower"},
	{"replica.catchup_ms", "ms", "lower"},
	{"replica.lag_p50_batches", "batches", "lower"},
	{"replica.lag_max_batches", "batches", "lower"},
	{"replica.batches_replayed", "count", "higher"},
	{"replica.resyncs", "count", "lower"},

	{"process.allocs_per_op", "count", "lower"},
	{"process.alloc_bytes_per_op", "bytes", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
	{"process.cpu_s_per_kop", "s", "lower"},
	{"process.peak_rss_mb", "MB", "lower"},

	// Estimated share of the request time each layer accounts for:
	// probe unit cost x how often the workload crossed the boundary,
	// over the total of the outer spans.
	{"share.server", "ratio", "lower"},
	{"share.txn", "ratio", "lower"},
	{"share.formula", "ratio", "lower"},
	{"share.relstore", "ratio", "lower"},
	{"share.wal", "ratio", "lower"},
}

// metricValue is one measured number; N is the sample count behind it
// (0 for counters and ratios).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	NProc     int                    `json:"nproc"`
	MaxProcs  int                    `json:"gomaxprocs"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Notes are what a reader must know to trust the numbers: a
	// saturated fixed-rate phase, a world that ran out of seats, failed
	// checks.
	Notes []string `json:"notes,omitempty"`
}

func (r *result) set(name string, v float64, n int) {
	unit := ""
	for _, list := range [][]decl{endToEnd, perLayer, extras} {
		for _, d := range list {
			if d.name == name {
				unit = d.unit
			}
		}
	}
	if unit == "" {
		panic("benchmark: undeclared metric " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
}

// setLatencies reports the tail of all requests and the median and tails
// of each operation class the workload has, under the given name prefix.
func (r *result) setLatencies(prefix string, all, submit, read, snap []int64) {
	r.set(prefix+"op_p99_us", us(quantile(all, 0.99)), len(all))
	for _, c := range []struct {
		class string
		lat   []int64
	}{{"submit", submit}, {"read", read}, {"snapread", snap}} {
		if len(c.lat) == 0 {
			continue
		}
		r.set(prefix+c.class+"_p50_us", us(quantile(c.lat, 0.5)), len(c.lat))
		r.set(prefix+c.class+"_p99_us", us(quantile(c.lat, 0.99)), len(c.lat))
		r.set(prefix+c.class+"_p999_us", us(quantile(c.lat, 0.999)), len(c.lat))
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// extras are printed by an untraced run where the workload has them, for
// a human reader; they gate nothing (their per-layer twins carry them in
// the traced run).
var extras = []decl{
	// The three timing gates as measured, before the workloads without a
	// log convert them to reference machine speed, and the speed they were
	// measured at over refNominal.
	{"raw_setup_s", "s", "lower"},
	{"raw_ops_per_s", "op/s", "higher"},
	{"raw_op_p50_us", "us", "lower"},
	{"machine_speed", "ratio", "higher"},
	{"op_p99_us", "us", "lower"},
	{"submit_p50_us", "us", "lower"},
	{"submit_p99_us", "us", "lower"},
	{"submit_p999_us", "us", "lower"},
	{"read_p50_us", "us", "lower"},
	{"read_p99_us", "us", "lower"},
	{"read_p999_us", "us", "lower"},
	{"snapread_p50_us", "us", "lower"},
	{"snapread_p99_us", "us", "lower"},
	{"snapread_p999_us", "us", "lower"},
	{"failed_share", "ratio", "lower"},
	{"recover_s", "s", "lower"},
	{"write_amp", "ratio", "lower"},
}

// driverLine is the one-line JSON the benchmark contract asks for: the
// declared metrics of the run's mode and nothing else.
func (r *result) driverLine() string {
	decls := endToEnd
	if r.Traced {
		decls = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range decls {
		out.Metrics[d.name] = mv{r.Metrics[d.name].Value, d.unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// print writes the human table: every metric by name with its unit and
// sample count.
func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %.1fs windows, nproc %d, GOMAXPROCS %d)\n",
		r.Workload, mode, r.Seed, r.Seconds, r.NProc, r.MaxProcs)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		// End-to-end names (no layer prefix) first, then by layer.
		pi, pj := strings.Contains(names[i], "."), strings.Contains(names[j], ".")
		if pi != pj {
			return pj
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		m := r.Metrics[n]
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-34s %16.4f %-8s %s\n", n, m.Value, m.Unit, samples)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
