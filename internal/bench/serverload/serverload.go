// Package serverload is the many-connection load generator for the
// server data plane: it drives submit traffic over pipelined
// connections and measures throughput, client-observed latency
// quantiles, and shed counts. It lives outside package bench
// because it dials the server (which wraps the root facade), and the
// root package's own benchmarks import bench.
package serverload

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	quantumdb "repro"
	"repro/internal/bench"
	"repro/internal/server"
)

// ServerConfig sizes the many-connection server data-plane experiment:
// C pipelined connections drive submit traffic at a server, Window
// concurrent requests per connection, completing out of order. The
// workload is deliberately conflict-free — unique-key inserts guarded
// by an existential — so every admission succeeds and the measured
// quantity is the data plane itself, not admission contention.
type ServerConfig struct {
	// Conns is the connection count.
	Conns int
	// Window is the number of concurrent issuers sharing each
	// connection.
	Window int
	// Batch is the number of transactions per wire request; values > 1
	// use the batch verb (one amortized admission cycle server-side).
	Batch int
	// Requests is the closed-loop total: wire requests issued across
	// all issuers (each counts Batch transactions). Ignored when Rate
	// is set.
	Requests int
	// Rate switches to open loop: total requests/second across all
	// issuers, held for Duration. Issuers that fall behind schedule
	// issue immediately (backlog, not coordinated omission).
	Rate     float64
	Duration time.Duration
	// RowsPerFlight sizes the guard table the existential ranges over.
	RowsPerFlight int
	// GroundEvery is the cadence of the wire-driven GroundAll that
	// keeps pending chains short (0 = 25ms).
	GroundEvery time.Duration
}

// DefaultServerLoad is the in-repo benchmark shape: small enough for
// CI, wide enough that pipelining has something to overlap.
func DefaultServerLoad() ServerConfig {
	return ServerConfig{Conns: 4, Window: 4, Batch: 1,
		Requests: 400, RowsPerFlight: 20}
}

// ServerResult is one measured load run.
type ServerResult struct {
	Config   ServerConfig
	Elapsed  time.Duration
	Requests int // wire requests completed
	Txns     int // transactions admitted (Requests × Batch)
	Sheds    int // retryable overload refusals observed
	// Lat summarizes client-observed request latency (issue → response).
	Lat bench.Quantiles
}

// Throughput reports admitted transactions per second of wall time.
func (r *ServerResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Txns) / r.Elapsed.Seconds()
}

// RunServerLoad boots a fresh engine + server on a loopback listener
// and drives the configured load at it, returning the measurement.
func RunServerLoad(cfg ServerConfig) (*ServerResult, error) {
	db, err := quantumdb.Open(quantumdb.Options{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	srv := server.New(db)
	go srv.Serve(l)
	res, err := DriveServerLoad(l.Addr().String(), cfg)
	if err != nil {
		return nil, err
	}
	res.Sheds = int(srv.Sheds())
	return res, err
}

// DriveServerLoad aims the load generator at an already-running server
// (qdbbench -exp server uses it against an external qdbd). It installs
// the bench schema if absent, runs the issuers, and keeps the engine's
// pending set bounded with a wire-driven GroundAll loop.
func DriveServerLoad(addr string, cfg ServerConfig) (*ServerResult, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	if cfg.RowsPerFlight <= 0 {
		cfg.RowsPerFlight = 20
	}
	if cfg.GroundEvery <= 0 {
		cfg.GroundEvery = 25 * time.Millisecond
	}
	if err := setupServerLoadSchema(addr, cfg.RowsPerFlight); err != nil {
		return nil, err
	}

	// Maintenance connection: periodic GroundAll keeps pending chains
	// short so per-submit solve cost stays flat across the run.
	mc, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer mc.Close()
	stopGround := make(chan struct{})
	var groundWG sync.WaitGroup
	groundWG.Add(1)
	go func() {
		defer groundWG.Done()
		tick := time.NewTicker(cfg.GroundEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopGround:
				return
			case <-tick.C:
				mc.GroundAll() // racing sheds/conflicts are fine; next tick catches up
			}
		}
	}()

	issuers := cfg.Conns * cfg.Window
	var interval time.Duration
	deadline := time.Time{}
	perIssuer := 0
	if cfg.Rate > 0 {
		if cfg.Duration <= 0 {
			cfg.Duration = 5 * time.Second
		}
		interval = time.Duration(float64(issuers) * float64(time.Second) / cfg.Rate)
		deadline = time.Now().Add(cfg.Duration)
	} else {
		if cfg.Requests <= 0 {
			cfg.Requests = 400
		}
		perIssuer = (cfg.Requests + issuers - 1) / issuers
	}

	var (
		seq      atomic.Int64
		requests atomic.Int64
		sheds    atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		latMu    sync.Mutex
		lats     []time.Duration
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	run := func(do func(txns []string) (retry bool, err error)) {
		defer wg.Done()
		local := make([]time.Duration, 0, 1024)
		txns := make([]string, cfg.Batch)
		start := time.Now()
		for n := 0; ; n++ {
			if cfg.Rate > 0 {
				next := start.Add(time.Duration(n) * interval)
				if sleep := time.Until(next); sleep > 0 {
					time.Sleep(sleep)
				}
				if time.Now().After(deadline) {
					break
				}
			} else if n >= perIssuer {
				break
			}
			for i := range txns {
				txns[i] = fmt.Sprintf("+BenchLog('u%d') :-1 BenchAvail(f, s)", seq.Add(1))
			}
			opStart := time.Now()
			for {
				retry, err := do(txns)
				if err != nil {
					fail(err)
					latMu.Lock()
					lats = append(lats, local...)
					latMu.Unlock()
					return
				}
				if !retry {
					break
				}
				sheds.Add(1)
				time.Sleep(time.Millisecond)
			}
			local = append(local, time.Since(opStart))
			requests.Add(1)
		}
		latMu.Lock()
		lats = append(lats, local...)
		latMu.Unlock()
	}

	startAll := time.Now()
	pipes := make([]*server.PipeClient, cfg.Conns)
	for i := range pipes {
		p, err := server.DialPipe(addr)
		if err != nil {
			close(stopGround)
			groundWG.Wait()
			return nil, err
		}
		defer p.Close()
		pipes[i] = p
	}
	for _, p := range pipes {
		for w := 0; w < cfg.Window; w++ {
			wg.Add(1)
			go run(func(txns []string) (bool, error) {
				req := server.Request{Op: "txn", Txn: txns[0]}
				if cfg.Batch > 1 {
					req = server.Request{Op: "batch", Txns: txns}
				}
				resp, err := p.Do(req)
				if err != nil {
					return false, err
				}
				if resp.Retry {
					return true, nil
				}
				if !resp.OK {
					return false, fmt.Errorf("server refusal: %s", resp.Err)
				}
				for _, e := range resp.Errs {
					if e != "" {
						return false, fmt.Errorf("batch member refused: %s", e)
					}
				}
				return false, nil
			})
		}
	}
	wg.Wait()
	elapsed := time.Since(startAll)
	close(stopGround)
	groundWG.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// Drain the run's leftover pending set so back-to-back runs against
	// a shared server start clean.
	mc.GroundAll()

	n := int(requests.Load())
	return &ServerResult{
		Config:   cfg,
		Elapsed:  elapsed,
		Requests: n,
		Txns:     n * cfg.Batch,
		Sheds:    int(sheds.Load()),
		Lat:      sampleQuantiles(lats),
	}, nil
}

// setupServerLoadSchema installs the generator's tables, tolerating a
// server that already has them (repeat runs against one daemon).
func setupServerLoadSchema(addr string, rows int) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	specs := []server.TableSpec{
		{Name: "BenchAvail", Columns: []string{"f", "s"}},
		{Name: "BenchLog", Columns: []string{"u"}, Key: []int{0}},
	}
	fresh := true
	for _, spec := range specs {
		if err := c.CreateTable(spec); err != nil {
			fresh = false // assume it exists; the probe below decides
		}
	}
	if !fresh {
		if _, err := c.SnapRead("BenchAvail(f, s)"); err != nil {
			return fmt.Errorf("bench schema unusable: %w", err)
		}
		return nil
	}
	facts := ""
	for i := 0; i < rows; i++ {
		if i > 0 {
			facts += ", "
		}
		facts += fmt.Sprintf("+BenchAvail(1, 's%d')", i)
	}
	return c.Exec(facts)
}

// sampleQuantiles summarizes client-observed latencies in the same
// nanosecond Quantiles shape the engine histograms use.
func sampleQuantiles(ds []time.Duration) bench.Quantiles {
	if len(ds) == 0 {
		return bench.Quantiles{}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pick := func(q float64) float64 {
		i := int(q * float64(len(ds)-1))
		return float64(ds[i])
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return bench.Quantiles{
		Count: int64(len(ds)),
		P50:   pick(0.50),
		P95:   pick(0.95),
		P99:   pick(0.99),
		Mean:  float64(sum) / float64(len(ds)),
	}
}

// ServerShape names one measured protocol configuration; the benchmark
// (BenchmarkServerSubmit) and the CI trajectory emitter (qdbbench
// -json, BENCH_server.json) share the list so both always measure the
// same shapes.
type ServerShape struct {
	Name string
	Cfg  ServerConfig
}

// ServerShapes returns the canonical sweep: pipelined submits one
// transaction per request, and the same with batched admission.
func ServerShapes() []ServerShape {
	base := DefaultServerLoad()
	batched := base
	batched.Batch = 8
	return []ServerShape{
		{"BenchmarkServerSubmit/proto=binary", base},
		{"BenchmarkServerSubmit/proto=binary-batch8", batched},
	}
}
