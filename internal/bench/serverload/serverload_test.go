package serverload

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestServerLoadStructural runs the generator end to end, with and
// without batching, at tiny scale and checks the accounting invariants
// that don't depend on machine speed: every scheduled request
// completed, transaction count reflects the batch factor, a latency
// sample exists per request, and nothing was refused.
func TestServerLoadStructural(t *testing.T) {
	for _, cfg := range []ServerConfig{
		{Conns: 2, Window: 2, Batch: 1, Requests: 40, RowsPerFlight: 6},
		{Conns: 2, Window: 2, Batch: 4, Requests: 24, RowsPerFlight: 6},
	} {
		name := "binary"
		if cfg.Batch > 1 {
			name += "-batch"
		}
		t.Run(name, func(t *testing.T) {
			r, err := RunServerLoad(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Requests < cfg.Requests {
				t.Fatalf("requests = %d, want >= %d", r.Requests, cfg.Requests)
			}
			if r.Txns != r.Requests*cfg.Batch {
				t.Fatalf("txns = %d, want %d", r.Txns, r.Requests*cfg.Batch)
			}
			if r.Lat.Count != int64(r.Requests) {
				t.Fatalf("latency samples = %d, want %d", r.Lat.Count, r.Requests)
			}
			if r.Lat.P99 <= 0 || r.Lat.Mean <= 0 {
				t.Fatalf("empty latency summary: %+v", r.Lat)
			}
			if r.Throughput() <= 0 {
				t.Fatal("no throughput")
			}
		})
	}
}

// TestServerLoadOpenLoop checks the rate-paced mode: a short run at a
// modest fixed rate completes roughly rate×duration requests (bounded
// below — a fast machine can't overshoot an open-loop schedule).
func TestServerLoadOpenLoop(t *testing.T) {
	r, err := RunServerLoad(ServerConfig{
		Conns: 2, Window: 2,
		Rate: 200, Duration: 500 * time.Millisecond, RowsPerFlight: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 200/s × 0.5s = 100 scheduled; allow generous slack for slow CI.
	if r.Requests < 20 {
		t.Fatalf("open-loop run completed %d requests, want >= 20", r.Requests)
	}
	if r.Requests > 120 {
		t.Fatalf("open-loop run overshot the schedule: %d requests", r.Requests)
	}
}

// TestServerShapesAligned pins the shared shape list: names carry the
// benchmark prefix and both shapes are present.
func TestServerShapesAligned(t *testing.T) {
	shapes := ServerShapes()
	if len(shapes) != 2 {
		t.Fatalf("shapes = %d, want 2", len(shapes))
	}
	wantSub := []string{"proto=binary", "proto=binary-batch8"}
	for i, s := range shapes {
		if !strings.HasPrefix(s.Name, "BenchmarkServerSubmit/") {
			t.Errorf("shape %q lacks the benchmark prefix", s.Name)
		}
		if !strings.HasSuffix(s.Name, wantSub[i]) {
			t.Errorf("shape %d = %q, want suffix %q", i, s.Name, wantSub[i])
		}
	}
	if shapes[0].Cfg.Batch != 1 || shapes[1].Cfg.Batch <= 1 {
		t.Error("shape configs out of order")
	}
}

// BenchmarkServerSubmit sweeps the canonical shapes (ServerShapes,
// shared with the CI trajectory artifact qdbbench -json,
// BENCH_server.json): pipelined submits, then the same with batched
// admission. Watch txn/s climb with the batch.
func BenchmarkServerSubmit(b *testing.B) {
	run := func(c ServerConfig) func(*testing.B) {
		return func(b *testing.B) {
			var elapsed time.Duration
			var txns int
			for i := 0; i < b.N; i++ {
				r, err := RunServerLoad(c)
				if err != nil {
					b.Fatal(err)
				}
				elapsed += r.Elapsed
				txns += r.Txns
			}
			b.ReportMetric(elapsed.Seconds()/float64(b.N), "storm-s/op")
			b.ReportMetric(float64(txns)/elapsed.Seconds(), "txn/s")
		}
	}
	for _, s := range ServerShapes() {
		b.Run(strings.TrimPrefix(s.Name, "BenchmarkServerSubmit/"), run(s.Cfg))
	}
}

// BenchmarkSnapreadWire is one 150-row snapshot scan round trip over the
// binary protocol (shared with the CI trajectory, BENCH_rowscan.json):
// watch B/op and allocs/op — the client's one map per row is what is
// left of them.
func BenchmarkSnapreadWire(b *testing.B) {
	b.Run(fmt.Sprintf("rows=%d", SnapreadRows), func(b *testing.B) {
		s, err := NewSnapreadWire(SnapreadRows)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Read(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
