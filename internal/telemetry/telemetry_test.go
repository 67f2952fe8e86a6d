package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	h.Record(0)
	h.Record(1)    // bucket 1: [1,2)
	h.Record(1023) // bucket 10: [512,1024)
	h.Record(1024) // bucket 11: [1024,2048)
	h.Record(math.MaxInt64)
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[10] != 1 ||
		s.Buckets[11] != 1 || s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("bucket placement wrong: %v", s.Buckets)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	// 1000 observations uniform in [1000, 2000) ns — all land in
	// buckets 10-11; quantiles must stay inside the observed range
	// up to one bucket of slack.
	for i := 0; i < 1000; i++ {
		h.Record(int64(1000 + i))
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := s.Quantile(q)
		if v < 512 || v > 4096 {
			t.Fatalf("q%.2f = %v, want within [512, 4096]", q, v)
		}
	}
	if m := s.Mean(); m < 1400 || m > 1600 {
		t.Fatalf("mean = %v, want ~1499", m)
	}
}

func TestNilHistogramSafe(t *testing.T) {
	var h *Histogram
	h.Record(5)
	h.Observe(time.Millisecond)
	if h.Count() != 0 {
		t.Fatal("nil histogram should count nothing")
	}
	_ = h.Snapshot()
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	var x atomic.Int64
	r.CounterFunc("x_total", "", x.Load)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.CounterFunc("x_total", "", x.Load)
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	var c, g atomic.Int64
	r.CounterFunc("qdb_test_ops_total", "Ops processed.", c.Load)
	c.Add(7)
	r.GaugeFunc("qdb_test_depth", "Current depth.", g.Load)
	g.Store(3)
	r.CounterFunc("qdb_test_fn_total", "From a func.", func() int64 { return 42 })
	h := r.Seconds("qdb_test_latency_seconds", `op="x"`, "Latency.")
	h.Observe(1500 * time.Nanosecond)
	h2 := r.Seconds("qdb_test_latency_seconds", `op="y"`, "Latency.")
	h2.Observe(time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE qdb_test_ops_total counter",
		"qdb_test_ops_total 7",
		"qdb_test_depth 3",
		"qdb_test_fn_total 42",
		"# TYPE qdb_test_latency_seconds histogram",
		`qdb_test_latency_seconds_bucket{op="x",le="+Inf"} 1`,
		`qdb_test_latency_seconds_count{op="x"} 1`,
		`qdb_test_latency_seconds_count{op="y"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if err := CheckExposition(buf.Bytes(), r.Names()); err != nil {
		t.Fatalf("self-scrape failed validation: %v", err)
	}
	// Families must be contiguous: both latency series under one header.
	if strings.Count(out, "# TYPE qdb_test_latency_seconds histogram") != 1 {
		t.Fatal("histogram family header duplicated")
	}
}

func TestCheckExpositionCatchesMissing(t *testing.T) {
	data := []byte("# TYPE a_total counter\na_total 1\n")
	if err := CheckExposition(data, []string{"a_total", "b_total"}); err == nil {
		t.Fatal("missing series not detected")
	}
	if err := CheckExposition([]byte("not a metric line at all !!!\n"), nil); err == nil {
		t.Fatal("malformed line not detected")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	var c atomic.Int64
	r.CounterFunc("qdb_test_h_total", "h", c.Load)
	c.Add(1)
	slow := NewSlowLog(4)
	h := r.Handler(slow)

	for _, path := range []string{"/metrics", "/healthz", "/debug/vars", "/debug/slowops"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s -> %d", path, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var doc struct {
		Metrics map[string]int64 `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if doc.Metrics["qdb_test_h_total"] != 1 {
		t.Fatalf("vars = %v", doc.Metrics)
	}
}

func TestSpanStagesAndSlowLog(t *testing.T) {
	r := NewRegistry()
	slow := NewSlowLog(2)
	slow.SetThreshold(1) // everything is slow
	tr := r.Tracer("qdb_test_op_seconds", "qdb_test_stage_seconds",
		"submit", "Op latency.", []string{"solve", "wal"}, slow)

	for i := 0; i < 3; i++ {
		sp := tr.Start()
		sp.Stage(0)
		sp.Add(1, 5*time.Microsecond)
		sp.End()
	}
	if got, ok := r.FindHistogram("qdb_test_op_seconds", `op="submit"`); !ok || got.Count != 3 {
		t.Fatalf("op histogram count = %v ok=%v", got.Count, ok)
	}
	if got, ok := r.FindHistogram("qdb_test_stage_seconds", `op="submit",stage="wal"`); !ok || got.Count != 3 {
		t.Fatalf("stage histogram count = %v ok=%v", got.Count, ok)
	}
	recs := slow.Dump()
	if len(recs) != 2 { // ring holds 2 of the 3
		t.Fatalf("ring has %d records, want 2", len(recs))
	}
	if slow.Captured() != 3 {
		t.Fatalf("captured = %d, want 3", slow.Captured())
	}
	if recs[0].Op != "submit" || recs[0].Stages["wal"] != int64(5*time.Microsecond) {
		t.Fatalf("record = %+v", recs[0])
	}
	var buf bytes.Buffer
	if err := slow.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	// Disarmed ring captures nothing.
	slow.SetThreshold(0)
	sp := tr.Start()
	sp.End()
	if slow.Captured() != 3 {
		t.Fatal("disarmed ring still captured")
	}
}

func TestNilSpanSafe(t *testing.T) {
	var sp *Span
	sp.Mark()
	sp.Stage(0)
	sp.Add(1, time.Second)
	sp.End()
}

// TestConcurrentScrapeStress hammers counters, histograms, and spans
// from 8 goroutines while a scraper renders and snapshots concurrently.
// Run under -race this proves the lock-free record paths and the
// exposition reads never conflict.
func TestConcurrentScrapeStress(t *testing.T) {
	r := NewRegistry()
	var c atomic.Int64
	r.CounterFunc("stress_ops_total", "", c.Load)
	h := r.Seconds("stress_latency_seconds", "", "")
	slow := NewSlowLog(16)
	slow.SetThreshold(1)
	tr := r.Tracer("stress_op_seconds", "stress_stage_seconds",
		"op", "", []string{"a", "b"}, slow)

	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
			r.WriteJSON(&bytes.Buffer{})
			h.Snapshot()
			slow.Dump()
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(1)
				h.Record(int64(i))
				sp := tr.Start()
				sp.Stage(0)
				sp.Stage(1)
				sp.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		// Let writers finish, then release the scraper.
		for c.Load() < writers*perWriter {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress test wedged")
	}
	if c.Load() != writers*perWriter {
		t.Fatalf("counter = %d, want %d", c.Load(), writers*perWriter)
	}
	if got := h.Snapshot().Count; got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
}

// TestSpanZeroAllocs is the overhead contract for the Submit fast
// path: a full recorded span — start, two stages, an explicit add, end,
// with the slow-op ring present but disarmed — performs zero heap
// allocations. If a future change makes Span escape, this fails before
// the Fig7 ratchet does.
func TestSpanZeroAllocs(t *testing.T) {
	r := NewRegistry()
	slow := NewSlowLog(8)
	tr := r.Tracer("alloc_op_seconds", "alloc_stage_seconds",
		"op", "", []string{"a", "b", "c"}, slow)
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start()
		sp.Stage(0)
		sp.Mark()
		sp.Stage(1)
		sp.Add(2, time.Microsecond)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("recorded span allocates %v times per op, want 0", allocs)
	}
	hAllocs := testing.AllocsPerRun(100, func() {
		tr.total.Observe(time.Microsecond)
	})
	if hAllocs != 0 {
		t.Fatalf("histogram record allocates %v times per op, want 0", hAllocs)
	}
}
