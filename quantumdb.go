// Package quantumdb is a Go implementation of Quantum Databases (Roy,
// Kot, Koch — CIDR 2013): a database abstraction that defers the choices
// made by transactions until an application or user forces them by
// observation.
//
// A resource transaction ("give Mickey any available seat on a flight to
// LA, preferably next to Goofy") commits without binding concrete values.
// The database keeps the set of possible worlds — intensionally, as an
// extensional store plus composed constraint bodies over the pending
// transactions — and guarantees that a consistent grounding always
// exists, so a committed transaction never rolls back. Reading data that
// a pending transaction may write collapses the superposition: values
// are fixed, updates execute, and reads are thereafter repeatable.
//
// Quick start:
//
//	db, _ := quantumdb.Open(quantumdb.Options{})
//	db.MustCreateTable(quantumdb.Table{Name: "Available", Columns: []string{"fno", "sno"}})
//	db.MustCreateTable(quantumdb.Table{Name: "Bookings",
//	    Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
//	db.MustExec("+Available(123, '5A')")
//	id, _ := db.Submit("-Available(f, s), +Bookings('Mickey', f, s) :-1 Available(f, s)")
//	// ... committed, but no seat chosen yet ...
//	rows, _ := db.Query("Bookings('Mickey', f, s)") // observation collapses
//	fmt.Println(rows[0]["s"], id)
//
// The package is a facade over the engine packages (internal/core,
// internal/relstore, internal/formula, internal/txn); everything is
// reachable through it, including entangled coordination
// (NewCoordinator) and durability/recovery (Options.WALPath, Recover).
//
// # Performance
//
// Grounding dominates the cost profile: every Ground/Query collapse runs
// the chain solver, which runs the conjunctive-query evaluator once per
// candidate grounding. The engine therefore follows a strict allocation
// discipline on that path:
//
//   - Queries are compiled before evaluation (relstore.Query.Compile):
//     variables resolve to slots of a logic.Env — a flat binding array
//     with an undo trail — so backtracking over candidate tuples binds
//     and unbinds slots instead of cloning a map per tuple. A Subst is
//     materialized only when a solution is emitted (Env.Snapshot) — and
//     reads do not emit Substs at all: Query, Snapshot.Query and the
//     server's read verbs take their solutions as one columnar RowSet
//     (column names once, values flat; QueryRows returns it as is), so a
//     row costs its values until a caller asks for []Row maps.
//   - The chain solver compiles each transaction body once per solve and
//     recycles delta overlays through a free list; overlay delta maps are
//     allocated lazily, so rejected candidate groundings cost no maps.
//   - Store and overlay scans build index and tombstone keys in on-stack
//     buffers, and planner cardinality probes (IndexCount) do not
//     allocate at all.
//   - Solve results survive across operations: compiled bodies live in a
//     database-level prepared-query cache keyed by stable transaction
//     views, each partition's cached solution replays at grounding time
//     (an unchanged partition collapses with zero solver work), and
//     rejected admissions and writes are re-rejected by cache probe.
//     All three caches are invalidated by store epoch counters — a
//     fingerprint mismatch proves the relevant relations changed and
//     forces a fresh solve, so a stale grounding can never be served.
//     Stats reports SolutionReplays, SolutionStale, NegativeCacheHits
//     and PrepCacheHits/Misses; Options.DisableCache turns the layer
//     off for ablations.
//
// Two join planners are available (relstore.PlanDynamic, the default
// greedy re-planning mode, and relstore.PlanStatic, a naive fixed order)
// via Options.Planner; PlanStatic reproduces the paper's bad-query-plan
// anomalies and is expected to be slow on purpose.
//
// Allocation regressions are guarded by testing.AllocsPerRun tests in
// internal/relstore and by the benchmark suite; run
//
//	go test -bench . -benchmem
//
// and watch allocs/op on BenchmarkFig7, the grounding-heavy workload
// (the trail-based engine landed at less than half the allocs/op of the
// map-based evaluator with a ~20% ns/op improvement).
//
// # Concurrency
//
// A DB is safe for concurrent use. The engine is sharded by partition
// (internal/sched): partitions — groups of pending transactions whose
// atoms can unify — are mutually independent by construction (§4), so
// each partition has its own lock and every operation acquires only the
// partitions it touches. What runs in parallel:
//
//   - Submissions admit OPTIMISTICALLY: the admission chain solve — the
//     hot path's dominant cost — runs outside the admission lock,
//     against a versioned snapshot of the partitions the transaction
//     overlaps; a short critical section then validates the snapshot
//     (same partitions at the same versions, relevant store epochs
//     unmoved or provably moved only by non-overlapping groundings) and
//     installs the outcome. Submits touching disjoint partitions
//     therefore admit concurrently, end to end.
//   - GroundAll drains independent partitions concurrently on a bounded
//     worker pool; so do the read-collapse phase of Query (when a read
//     forces several partitions to ground) and the validation solves of
//     a blind write that touches several partitions. Speculative
//     admission solves draw from the same pool, so total solve
//     concurrency stays bounded machine-wide.
//
// What serializes:
//
//   - The validate-and-install step of every admission, and blind
//     writes, hold a single admission lock — they can create or merge
//     partitions — but only for bookkeeping, never across a solve
//     (unless Options.SerialAdmission restores the classic discipline).
//     When validation fails (the partition set or the relevant store
//     state advanced mid-speculation) the admission retries, at most
//     twice; after that it falls back to one serial admission under the
//     lock, so contended partitions degrade to the pre-optimistic
//     behaviour instead of livelocking. Stats reports the funnel:
//     OptimisticAdmissions, AdmissionConflicts, AdmissionRetries,
//     SerialFallbacks (conflicts = retries + fallbacks). The k-bound
//     eviction a Submit triggers runs after the admission lock is
//     released, holding only the target partition.
//   - Operations on the SAME partition serialize on its lock; store
//     mutations are short exclusive sections against a read gate. Reads
//     do NOT hold that gate while evaluating: Query pins an immutable
//     copy-on-write snapshot of the store under a brief gate
//     acquisition and evaluates against it gate-free, so a long
//     analytical read never stalls appliers (and vice versa) while its
//     results stay cut at a single committed state.
//
// For reads that should never collapse pending transactions — and
// never wait on anything — DB.Snapshot returns an epoch-stamped frozen
// view; Snapshot.Query / DB.QueryAt evaluate against it lock-free and
// repeatably until it is Released. Stats reports SnapshotReads and the
// SnapshotsLive gauge. The raw store behind the engine is read-only:
// every row write goes through the engine, and one made directly on
// Engine().Store() is refused with relstore.ErrOwned.
//
// Options.Workers picks the pool width: 0 (default) uses GOMAXPROCS,
// 1 makes every multi-partition operation run inline (serial), larger
// values bound parallel grounding explicitly. cmd/qdbd exposes it as
// -workers. With Workers > 1 the choice among equally-valid groundings
// can depend on scheduling; every outcome is a consistent world, and
// per-partition results remain deterministic for serial runs (store
// iteration is insertion-ordered, never Go map order).
//
// Stats reports the scheduler's behaviour: ParallelSolves counts
// partition tasks executed on the pool (including speculative admission
// solves), LockWaits counts stale lock acquisitions and skips,
// PartitionMerges counts admission-time merges. cmd/qdbd exposes the
// serial-admission ablation as -serial-admission.
//
// # Durability
//
// Options.WALPath turns on write-ahead logging: every commit unit — an
// admitted transaction's pending record, a grounding's facts plus
// tombstone, a blind write — is appended to the log as one framed,
// sequence-stamped batch BEFORE its effects reach the store, so a crash
// between log and apply is repaired by replay rather than diverging.
// Two knobs shape the log:
//
//   - Options.SyncWAL acknowledges a batch only after an fsync covering
//     it. Concurrent appenders to the same segment GROUP COMMIT (one
//     leader fsyncs for everyone buffered so far); without it batches
//     are flushed to the OS but a machine crash may lose the unsynced
//     tail.
//   - Options.WALSegments shards the log into N partition-affine
//     segment files (<WALPath>.0 …). A partition's batches stay ordered
//     within one file while partitions on different segments share no
//     log mutex and no fsync stream, so durable grounding of disjoint
//     partitions scales with the segment count instead of serializing
//     on one log. Recovery merges every segment by sequence number into
//     a single ordered replay stream, tolerates a torn tail per
//     segment, and redoes facts idempotently.
//
// Recover rebuilds a database from the log; Checkpoint (on the engine,
// via Engine()) plus core.RecoverCheckpoint bound replay length. The
// checkpoint is FUZZY: it quiesces the engine only to pin a store
// snapshot and a WAL sequence stamp (a pause independent of data size,
// reported as Stats.CheckpointPauseNs), then serializes and truncates
// the log with transactions admitting, grounding, and writing
// concurrently; recovery replays only batches above the stamp. cmd/qdbd
// exposes the knobs as -wal, -sync-wal, and -wal-segments.
package quantumdb

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/telemetry"
	"repro/internal/txn"
	"repro/internal/value"
)

// Options configures a quantum database; see the field docs on the
// underlying type for the k-bound, serializability mode, caching,
// partitioning, durability, and collapse-choice heuristics.
type Options = core.Options

// Serializability modes for out-of-order grounding (§3.2.3 of the
// paper).
const (
	// Semantic grounds only the observed transaction when the reordered
	// chain stays satisfiable (the paper's recommended mode).
	Semantic = core.Semantic
	// Strict preserves arrival order: observing a transaction grounds
	// every earlier one in its partition first.
	Strict = core.Strict
)

// Stats re-exports the engine counters.
type Stats = core.Stats

// Table describes one relation: column names, optional key column
// positions (nil means the whole tuple is the key), and optional
// composite secondary indexes.
type Table struct {
	Name    string
	Columns []string
	Key     []int
	Indexes [][]int
}

// Row maps variable names of a query to the values a solution assigned
// them.
type Row map[string]Value

// Value is a scalar database value: an int64 or a string.
type Value = value.Value

// Int builds an integer Value.
func Int(i int64) Value { return value.NewInt(i) }

// Str builds a string Value.
func Str(s string) Value { return value.NewString(s) }

// DB is a quantum database over an embedded relational store.
type DB struct {
	q     *core.QDB
	store *relstore.DB
}

// Open creates an empty quantum database.
func Open(opt Options) (*DB, error) {
	store := relstore.NewDB()
	q, err := core.New(store, opt)
	if err != nil {
		return nil, err
	}
	return &DB{q: q, store: store}, nil
}

// Recover rebuilds a quantum database from the write-ahead log named in
// opt.WALPath. setup must re-create the SCHEMA (CreateTable calls) and
// any rows that were inserted outside the quantum database; every write
// made through DB.Exec and every grounded transaction is replayed from
// the log and must not be re-seeded. Still-pending resource transactions
// are re-admitted, restoring the quantum state.
func Recover(opt Options, setup func(*DB) error) (*DB, error) {
	store := relstore.NewDB()
	tmp := &DB{store: store}
	if setup != nil {
		if err := setup(tmp); err != nil {
			return nil, err
		}
	}
	q, err := core.Recover(store, opt)
	if err != nil {
		return nil, err
	}
	return &DB{q: q, store: store}, nil
}

// FromEngine wraps an already-constructed engine in the facade. This is
// the promotion path: replica.Follower.Promote returns a live
// *core.QDB built over the replica's replayed store, and FromEngine
// turns it into the DB a server can host. Ownership transfers — Close
// on the returned DB closes the engine.
func FromEngine(q *core.QDB) *DB {
	return &DB{q: q, store: q.Store()}
}

// Close releases the WAL, if any.
func (db *DB) Close() error { return db.q.Close() }

// CreateTable registers a relation.
func (db *DB) CreateTable(t Table) error {
	return db.store.CreateTable(relstore.Schema{
		Name: t.Name, Columns: t.Columns, Key: t.Key, Indexes: t.Indexes,
	})
}

// MustCreateTable is CreateTable panicking on error, for setup code.
func (db *DB) MustCreateTable(t Table) {
	if err := db.CreateTable(t); err != nil {
		panic(err)
	}
}

// Submit admits a resource transaction written in the paper's
// Datalog-like notation:
//
//	-Available(f, s), +Bookings('Mickey', f, s) :-1 Available(f, s), ?Bookings('Goofy', f, m), ?Adjacent(f, s, m)
//
// '?' (or OPT) marks OPTIONAL body atoms. On success the transaction is
// committed — a suitable resource is guaranteed — but no values are
// bound until observation. The returned ID can be passed to Ground.
func (db *DB) Submit(src string) (int64, error) {
	t, err := txn.Parse(src)
	if err != nil {
		return 0, err
	}
	return db.q.Submit(t)
}

// SubmitBatch admits a batch of resource transactions in one amortized
// admission cycle (one overlap snapshot, one speculative solve pass,
// one validate-and-install critical section, one WAL group commit —
// see core.SubmitBatch). Results align with srcs: ids[i] is the
// assigned ID when errs[i] is nil. Members are decided independently —
// a parse error or rejection in one slot never poisons the others —
// with the same outcomes sequential Submits in slice order would
// produce.
func (db *DB) SubmitBatch(srcs []string) ([]int64, []error) {
	ids := make([]int64, len(srcs))
	errs := make([]error, len(srcs))
	ts := make([]*txn.T, 0, len(srcs))
	idx := make([]int, 0, len(srcs))
	for i, src := range srcs {
		t, err := txn.Parse(src)
		if err != nil {
			errs[i] = err
			continue
		}
		ts = append(ts, t)
		idx = append(idx, i)
	}
	bids, berrs := db.q.SubmitBatch(ts)
	for j, i := range idx {
		ids[i], errs[i] = bids[j], berrs[j]
	}
	return ids, errs
}

// SubmitSQL is Submit for the paper's SQL-flavoured syntax (Figure 1):
//
//	SELECT A.fno AS @f, A.sno AS @s
//	FROM Available A, OPTIONAL Adjacent J
//	WHERE ...
//	CHOOSE 1
//	FOLLOWED BY (DELETE (@f, @s) FROM Available; INSERT ('Mickey', @f, @s) INTO Bookings)
//
// The statement is compiled to the Datalog-like core form against the
// current schema.
func (db *DB) SubmitSQL(src string) (int64, error) {
	t, err := txn.ParseSQL(src, db.schemaLookup)
	if err != nil {
		return 0, err
	}
	return db.q.Submit(t)
}

func (db *DB) schemaLookup(rel string) ([]string, bool) {
	sch, ok := db.store.SchemaOf(rel)
	if !ok {
		return nil, false
	}
	return sch.Columns, true
}

// SubmitTagged is Submit for entangled resource transactions: tag names
// this user; partner names the coordination partner whose transaction
// will arrive separately (§5.1). Use a Coordinator to ground pairs on
// partner arrival.
func (db *DB) SubmitTagged(src, tag, partner string) (int64, error) {
	t, err := txn.Parse(src)
	if err != nil {
		return 0, err
	}
	t.Tag = tag
	t.PartnerTag = partner
	return db.q.Submit(t)
}

// Query evaluates a conjunctive read query, e.g.
//
//	Bookings('Mickey', f, s)
//
// Pending transactions whose updates could affect the result are
// grounded first (observation collapses the quantum state); the returned
// rows bind the query's variables and are repeatable.
func (db *DB) Query(src string) ([]Row, error) {
	rs, err := db.QueryRows(src)
	if err != nil {
		return nil, err
	}
	return rowMaps(rs), nil
}

// RowSet is a columnar query result: column (variable) names once, then
// the rows' values flat in row-major order.
type RowSet = relstore.RowSet

// QueryRows is Query returning the engine's columnar row set as is; a
// row costs its values, not a map. Row-heavy callers (the server's wire
// encoder) use it.
func (db *DB) QueryRows(src string) (*RowSet, error) {
	atoms, err := txn.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return db.q.Read(atoms)
}

// rowMaps materializes a row set into named rows; a cell no atom bound
// is absent from its row.
func rowMaps(rs *RowSet) []Row {
	rows := make([]Row, rs.N)
	for i := range rows {
		row := make(Row, len(rs.Cols))
		for c, name := range rs.Cols {
			if v, ok := rs.Cell(i, c); ok {
				row[name] = v
			}
		}
		rows[i] = row
	}
	return rows
}

// Snapshot is an immutable, epoch-stamped view of the committed store —
// the collapse-free read primitive. Queries against a snapshot never
// force pending transactions to ground (no observation, no collapse),
// never block on store writers, and never block them: the view is a set
// of copy-on-write table versions pinned at a single committed state,
// so arbitrarily slow analytical reads run while admissions, groundings
// and writes proceed at full speed. The trade-off is visibility:
// committed-but-unground transactions are simply absent from a
// snapshot's results (use Query to observe them, collapsing the state).
//
// Release the snapshot when done; it stays readable afterwards, but
// holding it pins the store versions it references and makes writers
// copy the pages they touch (a few kilobytes per write, whatever the
// table's size; Stats.CowCopies/CowBytes count them).
type Snapshot struct {
	db *DB
	s  *core.Snapshot
}

// Snapshot pins the current committed state. O(tables), never O(rows).
func (db *DB) Snapshot() *Snapshot {
	return &Snapshot{db: db, s: db.q.Snapshot()}
}

// Release unpins the snapshot. Idempotent; safe for concurrent use.
func (s *Snapshot) Release() { s.s.Release() }

// Epoch returns the store epoch the snapshot was cut at; equal epochs
// witness identical content.
func (s *Snapshot) Epoch() uint64 { return s.s.Epoch() }

// Query evaluates a conjunctive read query against the snapshot's
// frozen state; shorthand for DB.QueryAt.
func (s *Snapshot) Query(src string) ([]Row, error) { return s.db.QueryAt(s, src) }

// QueryRows is Query returning the columnar row set; see DB.QueryRows.
func (s *Snapshot) QueryRows(src string) (*RowSet, error) {
	atoms, err := txn.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return s.db.q.QueryAt(s.s, atoms)
}

// QueryAt evaluates a conjunctive read query (Query syntax) against a
// snapshot: entirely gate-free, collapse-free, and repeatable — the
// same snapshot always returns the same rows.
func (db *DB) QueryAt(s *Snapshot, src string) ([]Row, error) {
	rs, err := s.QueryRows(src)
	if err != nil {
		return nil, err
	}
	return rowMaps(rs), nil
}

// Exec applies non-resource blind writes, given as comma-separated
// signed ground atoms:
//
//	+Available(123, '9Z'), -Available(123, '5A')
//
// Writes that would leave some committed resource transaction without
// any possible grounding are rejected with core.ErrWriteRejected.
func (db *DB) Exec(src string) error {
	inserts, deletes, err := parseFacts(src)
	if err != nil {
		return err
	}
	if db.q == nil {
		// Inside a Recover setup callback: seed the initial store
		// directly (there is no quantum state yet).
		return db.store.Apply(inserts, deletes)
	}
	return db.q.Write(inserts, deletes)
}

// MustExec is Exec panicking on error, for setup code.
func (db *DB) MustExec(src string) {
	if err := db.Exec(src); err != nil {
		panic(err)
	}
}

// Preview reports which pending transactions the given read query WOULD
// collapse, without collapsing anything (§3.2.2's "consequences of a
// read" feedback). Broad queries collapse more — prefer narrow ones.
func (db *DB) Preview(query string) ([]int64, error) {
	atoms, err := txn.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return db.q.PreviewRead(atoms), nil
}

// Ground forces value assignment for one committed transaction,
// executing its writes.
func (db *DB) Ground(id int64) error { return db.q.Ground(id) }

// GroundAll collapses every pending transaction; the database is fully
// extensional afterwards.
func (db *DB) GroundAll() error { return db.q.GroundAll() }

// Pending returns the number of committed-but-unground transactions.
func (db *DB) Pending() int { return db.q.PendingCount() }

// Stats returns engine counters.
func (db *DB) Stats() Stats { return db.q.Stats() }

// Metrics returns the engine's telemetry registry: every Stats counter
// as a Prometheus-style series plus per-operation latency histograms
// with stage breakdowns. Serve it over HTTP with Registry.Handler (the
// -metrics-addr listener on qdbd) or render it directly.
func (db *DB) Metrics() *telemetry.Registry { return db.q.Metrics() }

// SlowOps returns the engine's slow-op ring buffer; disabled until a
// threshold is set (Options.SlowOpThreshold or SetSlowOpThreshold).
func (db *DB) SlowOps() *telemetry.SlowLog { return db.q.SlowOps() }

// SetSlowOpThreshold arms (d > 0) or disarms (d <= 0) slow-op capture
// at runtime.
func (db *DB) SetSlowOpThreshold(d time.Duration) { db.q.SetSlowOpThreshold(d) }

// Engine exposes the underlying quantum engine for advanced use
// (GroundPair, partition inspection). Its raw store (Engine().Store())
// is read-only: its row writes return relstore.ErrOwned; write with Exec.
func (db *DB) Engine() *core.QDB { return db.q }

// Coordinator executes entangled resource transactions: it grounds a
// pair together as soon as both partners are in the system.
type Coordinator struct{ c *core.Coordinator }

// NewCoordinator wraps the database for entangled submission.
func (db *DB) NewCoordinator() *Coordinator {
	return &Coordinator{c: core.NewCoordinator(db.q)}
}

// SetEager enables coordinated collapse on arrival when the partner was
// already executed (an extension over the paper; see the ablation
// benchmarks).
func (co *Coordinator) SetEager(on bool) { co.c.EagerCoordination = on }

// Submit admits an entangled resource transaction; when its partner is
// already pending, the pair is grounded together, coordinating if at all
// possible.
func (co *Coordinator) Submit(src, tag, partner string) (int64, error) {
	t, err := txn.Parse(src)
	if err != nil {
		return 0, err
	}
	t.Tag = tag
	t.PartnerTag = partner
	return co.c.Submit(t)
}

// CoordinatedPairs reports how many pairs were grounded together.
func (co *Coordinator) CoordinatedPairs() int { return co.c.CoordinatedPairs() }

// parseFacts reads comma-separated signed ground atoms.
func parseFacts(src string) (inserts, deletes []relstore.GroundFact, err error) {
	rest := strings.TrimSpace(src)
	if rest == "" {
		return nil, nil, fmt.Errorf("quantumdb: empty write")
	}
	// Reuse the transaction parser by wrapping the ops into a dummy txn:
	// "<ops> :-1 True(0)" would need a True relation; parse manually via
	// ParseQuery on the atom part after stripping signs instead.
	parts := splitTopLevel(rest)
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, nil, fmt.Errorf("quantumdb: empty atom in write %q", src)
		}
		var insert bool
		switch p[0] {
		case '+':
			insert = true
		case '-':
			insert = false
		default:
			return nil, nil, fmt.Errorf("quantumdb: write atom %q must start with + or -", p)
		}
		atoms, err := txn.ParseQuery(p[1:])
		if err != nil || len(atoms) != 1 {
			return nil, nil, fmt.Errorf("quantumdb: bad write atom %q", p)
		}
		a := atoms[0]
		if !a.IsGround() {
			return nil, nil, fmt.Errorf("quantumdb: write atom %q contains variables", p)
		}
		f := relstore.GroundFact{Rel: a.Rel, Tuple: a.Tuple()}
		if insert {
			inserts = append(inserts, f)
		} else {
			deletes = append(deletes, f)
		}
	}
	return inserts, deletes, nil
}

// splitTopLevel splits on commas that are outside parentheses and
// quotes.
func splitTopLevel(s string) []string {
	var parts []string
	depth, start := 0, 0
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '\'' {
				inStr = false
			}
		case c == '\'':
			inStr = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	parts = append(parts, s[start:])
	return parts
}
