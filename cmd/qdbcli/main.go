// Command qdbcli is an interactive shell over a quantum database. It
// speaks the paper's Datalog-like notation and makes the quantum
// behaviour observable: commit without grounding, collapse on read, the
// pending-transaction count, and forced grounding.
//
//	$ qdbcli
//	qdb> create Available(fno, sno)
//	qdb> create Bookings(name, fno, sno) key 1 2
//	qdb> exec +Available(123, '5A'), +Available(123, '5B')
//	qdb> txn -Available(f, s), +Bookings('Mickey', f, s) :-1 Available(f, s)
//	committed txn 1 (pending: 1)
//	qdb> read Bookings('Mickey', f, s)
//	f=123 s=5A        <- observation collapsed the superposition
//
// `demo` loads the travel schema with one small flight.
//
// With -addr, qdbcli runs one command against a remote qdbd (leader or
// follower) over the wire protocol and exits — the scripting face of
// the server:
//
//	qdbcli -addr 127.0.0.1:7685 lag        -> seq=42 applied=42 lag=0
//	qdbcli -addr 127.0.0.1:7685 peek 'Bookings(n, 1, s)'
//	qdbcli -addr 127.0.0.1:7683 txn "-Available(1, s), ... :-1 Available(1, s)"
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	quantumdb "repro"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "",
		"remote qdbd address; runs the single command in the remaining args and exits")
	flag.Parse()
	if *addr != "" {
		os.Exit(runRemote(*addr, flag.Args()))
	}

	db, err := quantumdb.Open(quantumdb.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()
	co := db.NewCoordinator()

	fmt.Println("quantum database shell — 'help' for commands")
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("qdb> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "exit" || line == "quit" {
			return
		}
		if line != "" {
			run(db, co, line)
		}
		fmt.Print("qdb> ")
	}
}

// runRemote executes one command against a remote qdbd and returns the
// process exit code. The verb set is the read-side subset plus
// txn/batch/exec/ground — enough for scripting and for health checks
// against followers (`lag` is the one to poll).
func runRemote(addr string, args []string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	if len(args) == 0 {
		return fail(fmt.Errorf("usage: qdbcli -addr host:port <ping|lag|pending|stats|peek|read|create|txn|batch|exec|ground|promote> [args]"))
	}
	c, err := server.Dial(addr)
	if err != nil {
		return fail(err)
	}
	defer c.Close()
	cmd, rest := args[0], strings.Join(args[1:], " ")
	switch cmd {
	case "ping":
		if err := c.Ping(); err != nil {
			return fail(err)
		}
		fmt.Println("ok")
	case "lag":
		seq, applied, lag, err := c.Lag()
		if err != nil {
			return fail(err)
		}
		fmt.Printf("seq=%d applied=%d lag=%d\n", seq, applied, lag)
	case "promote":
		// Promote the follower at -addr to leader. "promote force" skips
		// the fence exchange — only for a leader that is known dead.
		force := rest == "force"
		if rest != "" && !force {
			return fail(fmt.Errorf("usage: promote [force]"))
		}
		term, seq, err := c.Promote(force)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("promoted %s: term=%d seq=%d\n", c.Addr(), term, seq)
	case "pending":
		n, err := c.Pending()
		if err != nil {
			return fail(err)
		}
		fmt.Println(n)
	case "stats":
		st, err := c.Stats()
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%+v\n", st)
	case "peek", "snapread":
		rows, err := c.SnapRead(rest)
		if err != nil {
			return fail(err)
		}
		printWireRows(rows)
	case "read":
		rows, err := c.Query(rest)
		if err != nil {
			return fail(err)
		}
		m := make([]map[string]string, len(rows))
		for i, r := range rows {
			m[i] = make(map[string]string, len(r))
			for k, v := range r {
				m[i][k] = v.Quoted()
			}
		}
		printWireRows(m)
	case "create":
		name, cols, key, err := parseCreate(rest)
		if err != nil {
			return fail(err)
		}
		if err := c.CreateTable(server.TableSpec{Name: name, Columns: cols, Key: key}); err != nil {
			return fail(err)
		}
		fmt.Printf("created %s\n", name)
	case "txn":
		id, err := c.Submit(rest)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("committed txn %d\n", id)
	case "batch":
		// One amortized admission cycle server-side; transactions are
		// separated by ';' so each may contain commas.
		var txns []string
		for _, t := range strings.Split(rest, ";") {
			if t = strings.TrimSpace(t); t != "" {
				txns = append(txns, t)
			}
		}
		if len(txns) == 0 {
			return fail(fmt.Errorf("usage: batch <txn> [; <txn> ...]"))
		}
		ids, errs, err := c.SubmitBatch(txns)
		if err != nil {
			return fail(err)
		}
		code := 0
		for i := range txns {
			if errs[i] != nil {
				fmt.Printf("txn %d/%d: error: %v\n", i+1, len(txns), errs[i])
				code = 1
			} else {
				fmt.Printf("txn %d/%d: committed %d\n", i+1, len(txns), ids[i])
			}
		}
		return code
	case "exec":
		if err := c.Exec(rest); err != nil {
			return fail(err)
		}
		fmt.Println("ok")
	case "ground":
		if rest == "all" {
			if err := c.GroundAll(); err != nil {
				return fail(err)
			}
			fmt.Println("all grounded")
			return 0
		}
		id, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return fail(fmt.Errorf("usage: ground <id> | ground all"))
		}
		if err := c.Ground(id); err != nil {
			return fail(err)
		}
		fmt.Printf("grounded %d\n", id)
	default:
		return fail(fmt.Errorf("unknown remote command %q", cmd))
	}
	return 0
}

// printWireRows renders quoted-string wire rows with sorted keys, one
// row per line — stable output a smoke test can diff across servers.
func printWireRows(rows []map[string]string) {
	if len(rows) == 0 {
		fmt.Println("(no rows)")
		return
	}
	lines := make([]string, 0, len(rows))
	for _, row := range rows {
		keys := make([]string, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%s", k, row[k]))
		}
		lines = append(lines, strings.Join(parts, " "))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}

func run(db *quantumdb.DB, co *quantumdb.Coordinator, line string) {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "help":
		fmt.Print(`commands:
  create <Rel>(col, ...) [key i j ...]   create a relation
  exec  +R(...), -S(...)                 blind ground writes (checked)
  txn   <update> :-1 <body>              submit a resource transaction
  etxn  <tag> <partner> <txn>            submit an entangled transaction
  read  R(args), S(args)                 conjunctive query (collapses!)
  peek  R(args), S(args)                 snapshot query (committed state
                                         only — collapses nothing)
  ground <id> | ground all               force value assignment
  pending                                count pending transactions
  stats                                  engine counters (includes
                                         SnapshotReads, CheckpointPauseNs)
  metrics                                latency quantiles (p50/p95/p99)
                                         for every op, stage, and
                                         subsystem histogram
  demo                                   load a small travel world
  exit
`)
	case "create":
		name, cols, key, err := parseCreate(rest)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if err := db.CreateTable(quantumdb.Table{Name: name, Columns: cols, Key: key}); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("created %s\n", name)
	case "exec":
		if err := db.Exec(rest); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println("ok")
	case "txn":
		id, err := db.Submit(rest)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("committed txn %d (pending: %d)\n", id, db.Pending())
	case "etxn":
		fields := strings.SplitN(rest, " ", 3)
		if len(fields) != 3 {
			fmt.Println("usage: etxn <tag> <partner> <txn>")
			return
		}
		id, err := co.Submit(fields[2], fields[0], fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("committed entangled txn %d (pending: %d, coordinated pairs: %d)\n",
			id, db.Pending(), co.CoordinatedPairs())
	case "read":
		rows, err := db.Query(rest)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printRows(rows)
	case "peek":
		// Collapse-free read against a one-shot snapshot: pending
		// transactions stay superposed and are not visible.
		snap := db.Snapshot()
		rows, err := snap.Query(rest)
		snap.Release()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printRows(rows)
	case "ground":
		if rest == "all" {
			if err := db.GroundAll(); err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Println("all grounded")
			return
		}
		id, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			fmt.Println("usage: ground <id> | ground all")
			return
		}
		if err := db.Ground(id); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("grounded %d\n", id)
	case "pending":
		fmt.Println(db.Pending())
	case "stats":
		fmt.Printf("%+v\n", db.Stats())
	case "metrics":
		printMetrics(db)
	case "demo":
		loadDemo(db)
	default:
		fmt.Printf("unknown command %q — try 'help'\n", cmd)
	}
}

// printMetrics renders every histogram in the engine's registry with
// count and interpolated quantiles; durations print humanized, raw
// histograms (scale 1, e.g. WAL batch bytes) print as integers.
func printMetrics(db *quantumdb.DB) {
	hists := db.Metrics().Histograms()
	any := false
	for _, h := range hists {
		if h.Snap.Count == 0 {
			continue
		}
		any = true
		name := h.Name
		if h.Labels != "" {
			name += "{" + h.Labels + "}"
		}
		format := func(v float64) string {
			if h.Scale != 1 {
				return time.Duration(v).Round(time.Microsecond).String()
			}
			return strconv.FormatInt(int64(v), 10)
		}
		fmt.Printf("%-64s n=%-7d p50=%-10s p95=%-10s p99=%-10s mean=%s\n",
			name, h.Snap.Count,
			format(h.Snap.Quantile(0.50)),
			format(h.Snap.Quantile(0.95)),
			format(h.Snap.Quantile(0.99)),
			format(h.Snap.Mean()))
	}
	if !any {
		fmt.Println("(no observations yet — run some txns/reads first)")
	}
}

func printRows(rows []quantumdb.Row) {
	if len(rows) == 0 {
		fmt.Println("(no rows)")
		return
	}
	for _, row := range rows {
		keys := make([]string, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%v", k, row[k]))
		}
		fmt.Println(strings.Join(parts, " "))
	}
}

func parseCreate(s string) (name string, cols []string, key []int, err error) {
	open := strings.Index(s, "(")
	closeIdx := strings.Index(s, ")")
	if open <= 0 || closeIdx < open {
		return "", nil, nil, fmt.Errorf("usage: create Rel(col, ...) [key i j ...]")
	}
	name = strings.TrimSpace(s[:open])
	for _, c := range strings.Split(s[open+1:closeIdx], ",") {
		cols = append(cols, strings.TrimSpace(c))
	}
	tail := strings.TrimSpace(s[closeIdx+1:])
	if tail != "" {
		if !strings.HasPrefix(tail, "key ") {
			return "", nil, nil, fmt.Errorf("unexpected %q after column list", tail)
		}
		for _, f := range strings.Fields(tail[4:]) {
			i, err := strconv.Atoi(f)
			if err != nil {
				return "", nil, nil, fmt.Errorf("bad key column %q", f)
			}
			key = append(key, i)
		}
	}
	return name, cols, key, nil
}

func loadDemo(db *quantumdb.DB) {
	tables := []quantumdb.Table{
		{Name: "Available", Columns: []string{"fno", "sno"}},
		{Name: "Bookings", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}},
		{Name: "Adjacent", Columns: []string{"fno", "s1", "s2"}, Indexes: [][]int{{0, 1}, {0, 2}}},
	}
	for _, t := range tables {
		if err := db.CreateTable(t); err != nil {
			fmt.Println("demo:", err)
			return
		}
	}
	db.MustExec("+Available(123, '1A'), +Available(123, '1B'), +Available(123, '1C')")
	db.MustExec("+Available(123, '2A'), +Available(123, '2B'), +Available(123, '2C')")
	for _, p := range [][2]string{{"1A", "1B"}, {"1B", "1C"}, {"2A", "2B"}, {"2B", "2C"}} {
		db.MustExec(fmt.Sprintf("+Adjacent(123, '%s', '%s'), +Adjacent(123, '%s', '%s')",
			p[0], p[1], p[1], p[0]))
	}
	fmt.Println("demo loaded: flight 123 with 6 seats (2 rows), adjacency within rows")
	fmt.Println("try: txn -Available(f, s), +Bookings('Mickey', f, s) :-1 Available(f, s)")
}
