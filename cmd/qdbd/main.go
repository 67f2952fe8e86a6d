// Command qdbd runs a quantum database as a network service (the
// middle-tier of Figure 4). It speaks two protocols on one port: a
// length-prefixed, CRC-framed binary protocol with per-connection
// request pipelining (what the Go client dials by default), and a
// JSON-lines protocol for anything that can write a JSON object to a
// socket. A connection opts into binary by leading with a 4-byte magic
// preamble; everything else is served as JSON lines.
//
//	qdbd -addr :7683 -wal /var/lib/qdb/qdb.wal -metrics-addr :7684
//
// Each JSON request is one object per line, e.g.:
//
//	{"op":"create","table":{"name":"Available","columns":["fno","sno"]}}
//	{"op":"exec","facts":"+Available(1, '1A')"}
//	{"op":"txn","txn":"-Available(1, s), +Bookings('M', 1, s) :-1 Available(1, s)"}
//	{"op":"read","query":"Bookings('M', 1, s)"}
//	{"op":"snapread","query":"Available(1, s)"}
//
// "read" collapses superpositions like an in-process Query; "snapread"
// serves the committed state from a copy-on-write snapshot — it never
// collapses anything and never contends with concurrent grounding.
//
// With -metrics-addr, a second HTTP listener serves the engine's
// telemetry: /metrics (Prometheus text exposition), /healthz,
// /debug/vars (JSON), /debug/slowops (the slow-op ring; arm with
// -slow-op), and /debug/pprof. SIGINT/SIGTERM shut down gracefully:
// the server drains in-flight requests, then the database closes (WAL
// group commit flushed) before the process exits.
//
// With -follow, qdbd runs as a read-only log-shipping replica instead:
//
//	qdbd -follow 127.0.0.1:7683 -addr :7685 -pull-interval 100ms
//
// The follower bootstraps a checkpoint image from the leader (retrying
// until the leader is up), replays its WAL tail — long-polling by
// default, so batches ship the moment they commit — and serves
// snapread/pending/stats/lag from the replayed store; every mutating
// verb is refused with a redirect to the leader. The leader needs no
// flags — any WAL-backed qdbd ships its log on demand. Schema must
// exist on the leader before the follower bootstraps (table creation is
// not logged; it rides the checkpoint image). With -cache-dir the
// follower spills its replayed image locally and a restart resumes from
// it instead of re-bootstrapping over the network; with -promote-wal
// the promote verb (qdbcli promote [force]) turns the process into the
// leader in place: fence the old leader, drain its sealed tail, and
// start admitting writes at the next term. Deposed leaders flip
// read-only and redirect clients at the winner.
//
// See internal/server for the full request/response schema and a Go
// client.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	quantumdb "repro"
	"repro/internal/replica"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7683", "listen address")
	metricsAddr := flag.String("metrics-addr", "",
		"HTTP listen address for /metrics, /healthz, /debug/vars, /debug/slowops, and /debug/pprof (off when empty)")
	slowOp := flag.Duration("slow-op", 0,
		"record any engine operation slower than this into the slow-op ring at /debug/slowops (0 = off)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"how long a SIGINT/SIGTERM shutdown waits for in-flight requests before closing their connections")
	maxInflight := flag.Int("max-inflight", 0,
		"per-connection pipelining window: requests a binary connection may have dispatched at once (0 = default 64)")
	maxConns := flag.Int("max-conns", 0,
		"connection cap; connections beyond it are refused at accept (0 = unlimited)")
	shedWait := flag.Duration("shed-wait", 0,
		"queue-wait shed threshold: a request that cannot enter its connection's window within this long is refused with a retryable overloaded error (0 = default 50ms)")
	wal := flag.String("wal", "", "write-ahead log root path, segments at <path>.0.. (durability off when empty)")
	walSegments := flag.Int("wal-segments", 1,
		"number of partition-affine WAL segment files; groundings of partitions on different segments append and fsync independently")
	syncWAL := flag.Bool("sync-wal", false,
		"fsync every WAL batch before acknowledging it (group commit per segment); off, a machine crash may lose the unsynced tail")
	k := flag.Int("k", 0, "per-partition pending bound (0 = paper default 61)")
	strict := flag.Bool("strict", false, "strict (classical) serializability instead of semantic")
	workers := flag.Int("workers", 0, "scheduler worker pool size for parallel partition grounding (0 = GOMAXPROCS, 1 = serial)")
	serialAdmission := flag.Bool("serial-admission", false,
		"hold the admission lock across each Submit's chain solve instead of admitting optimistically (ablation)")
	follow := flag.String("follow", "",
		"leader address to replicate from; runs qdbd as a read-only follower (most other flags are ignored)")
	pullInterval := flag.Duration("pull-interval", 200*time.Millisecond,
		"how often a follower pulls the leader's WAL tail")
	longPoll := flag.Duration("long-poll", 10*time.Second,
		"follower pulls park at the leader up to this long waiting for new batches — push-style shipping (0 = plain polling every -pull-interval)")
	cacheDir := flag.String("cache-dir", "",
		"follower-local directory for the persistent replica image; restarts resume from it instead of re-bootstrapping over the network")
	promoteWAL := flag.String("promote-wal", "",
		"WAL root path for this follower if it is promoted to leader; arms the promote verb (promotion refused when empty)")
	promoteCheckpoint := flag.String("promote-checkpoint", "",
		"checkpoint file cut right after a promotion, anchoring the promoted store durably (recommended with -promote-wal)")
	advertise := flag.String("advertise", "",
		"address peers and redirected clients should reach this server at (defaults to -addr)")
	flag.Parse()

	if *advertise == "" {
		*advertise = *addr
	}
	if *follow != "" {
		runFollower(followerConfig{
			leader: *follow, addr: *addr, metricsAddr: *metricsAddr,
			advertise: *advertise, cacheDir: *cacheDir,
			promoteWAL: *promoteWAL, promoteCheckpoint: *promoteCheckpoint,
			walSegments: *walSegments, syncWAL: *syncWAL,
			pullInterval: *pullInterval, longPoll: *longPoll,
			drainTimeout: *drainTimeout,
			maxInflight:  *maxInflight, maxConns: *maxConns, shedWait: *shedWait,
		})
		return
	}

	opt := quantumdb.Options{
		WALPath: *wal, SyncWAL: *syncWAL, WALSegments: *walSegments,
		K: *k, Workers: *workers, SerialAdmission: *serialAdmission,
		SlowOpThreshold: *slowOp,
	}
	if *strict {
		opt.Mode = quantumdb.Strict
	}
	db, err := quantumdb.Open(opt)
	if err != nil {
		log.Fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(db)
	srv.SetLimits(*maxInflight, *maxConns, *shedWait)

	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("qdbd metrics on http://%s/metrics\n", ml.Addr())
		go func() {
			if err := http.Serve(ml, db.Metrics().Handler(db.SlowOps())); err != nil {
				log.Printf("metrics listener: %v", err)
			}
		}()
	}

	admission := "optimistic"
	if *serialAdmission {
		admission = "serial"
	}
	durability := "off"
	if *wal != "" {
		durability = fmt.Sprintf("%d segment(s), sync=%v", *walSegments, *syncWAL)
	}
	fmt.Printf("qdbd listening on %s (wal=%q [%s], k=%d, mode=%v, workers=%d, admission=%s)\n",
		l.Addr(), *wal, durability, *k, opt.Mode, db.Engine().Workers(), admission)

	// Graceful shutdown: on SIGINT/SIGTERM, drain the TCP server (stop
	// accepting, let in-flight requests finish writing responses), then
	// close the database so the WAL tail is flushed before exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	select {
	case s := <-sig:
		fmt.Printf("qdbd: %v, draining (timeout %v)\n", s, *drainTimeout)
		if err := srv.Shutdown(*drainTimeout); err != nil {
			log.Printf("drain: %v", err)
		}
		if err := db.Close(); err != nil {
			log.Fatalf("close: %v", err)
		}
	case err := <-serveErr:
		db.Close()
		log.Fatal(err)
	}
}

// followerConfig gathers follower-mode settings (too many for
// positional arguments).
type followerConfig struct {
	leader, addr, metricsAddr     string
	advertise, cacheDir           string
	promoteWAL, promoteCheckpoint string
	walSegments                   int
	syncWAL                       bool
	pullInterval, longPoll        time.Duration
	drainTimeout                  time.Duration
	maxInflight, maxConns         int
	shedWait                      time.Duration
}

// runFollower is follower mode: bootstrap from the leader — or resume
// from the local cache when -cache-dir has a spilled image — replay its
// WAL (long-polling by default, so batches ship the moment they
// commit), and serve the read-only verb subset plus lag. Mutations are
// refused with a redirect to the leader. With -promote-wal, the promote
// verb (qdbcli promote) turns this process into the leader in place:
// fence the old leader, drain its sealed tail, rebuild an admitting
// engine over the replayed store, and start taking writes at the new
// term.
func runFollower(cfg followerConfig) {
	rc := &server.ReplicaClient{Addr: cfg.leader, Wait: cfg.longPoll}
	f := replica.NewFollower(rc)
	f.Logf = log.Printf
	f.LongPoll = cfg.longPoll > 0
	f.CacheDir = cfg.cacheDir
	f.SetLeaderAddr(cfg.leader)

	// Bootstrap (or cache resume), retrying under a capped jittered
	// backoff so follower and leader may start in either order — and
	// aborting promptly on SIGINT/SIGTERM instead of sleeping through
	// the shutdown.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	const bootstrapWindow = 30 * time.Second
	deadline := time.Now().Add(bootstrapWindow)
	bo := replica.NewBackoff(250*time.Millisecond, 5*time.Second)
	for {
		err := f.BootstrapOrResume()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("bootstrap from %s: %v (gave up after %v)", cfg.leader, err, bootstrapWindow)
		}
		log.Printf("bootstrap from %s: %v (retrying)", cfg.leader, err)
		t := time.NewTimer(bo.Next())
		select {
		case s := <-sig:
			t.Stop()
			fmt.Printf("qdbd: %v during bootstrap, exiting\n", s)
			return
		case <-t.C:
		}
	}

	stop := make(chan struct{})
	go f.Run(cfg.pullInterval, stop)

	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := server.NewFollower(f)
	srv.SetLimits(cfg.maxInflight, cfg.maxConns, cfg.shedWait)
	if cfg.promoteWAL != "" {
		srv.EnablePromotion(replica.PromoteConfig{
			WAL: quantumdb.Options{
				WALPath: cfg.promoteWAL, SyncWAL: cfg.syncWAL,
				WALSegments: cfg.walSegments,
			},
			Addr:           cfg.advertise,
			CheckpointPath: cfg.promoteCheckpoint,
		})
	}

	if cfg.metricsAddr != "" {
		ml, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("qdbd metrics on http://%s/metrics\n", ml.Addr())
		go func() {
			if err := http.Serve(ml, f.Metrics().Handler(f.SlowOps())); err != nil {
				log.Printf("metrics listener: %v", err)
			}
		}()
	}

	promotable := "no"
	if cfg.promoteWAL != "" {
		promotable = "yes"
	}
	fmt.Printf("qdbd following %s on %s (applied seq %d, pull every %v, long-poll %v, cache %q, promotable %s)\n",
		cfg.leader, l.Addr(), f.AppliedSeq(), cfg.pullInterval, cfg.longPoll, cfg.cacheDir, promotable)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	select {
	case s := <-sig:
		fmt.Printf("qdbd: %v, draining (timeout %v)\n", s, cfg.drainTimeout)
		close(stop)
		if err := srv.Shutdown(cfg.drainTimeout); err != nil {
			log.Printf("drain: %v", err)
		}
		rc.Close()
		if db := srv.DB(); db != nil {
			// Promoted mid-run: we are the leader now; flush and close
			// the engine so the WAL tail is durable.
			if err := db.Close(); err != nil {
				log.Fatalf("close promoted engine: %v", err)
			}
		} else if err := f.SaveCache(); err != nil {
			log.Printf("cache spill: %v", err)
		}
	case err := <-serveErr:
		close(stop)
		log.Fatal(err)
	}
}
