package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	quantumdb "repro"
	"repro/internal/value"
)

// miniature shrinks a workload so that its whole run, checks included,
// takes a fraction of a second.
func miniature(def *workloadDef) *workloadDef {
	m := *def
	m.spec.flights = 40
	if m.spec.rows > 10 {
		m.spec.rows = 10
	}
	if def == paperMixed {
		m.spec.flights, m.spec.rows = 4, 4
	}
	m.rate = 300
	m.warmOps = 20
	if m.ckptEvery > 0 {
		m.ckptEvery = 100
	}
	return &m
}

// miniWindow is the measured time of one miniature run.
const miniWindow = 0.2

// A miniature run does not need a steady reading of the machine's speed.
func init() { refSlice = 5 * time.Millisecond }

// minis caches the miniature runs, one per workload and mode, so that the
// tests sharing them fit the tier-1 time budget.
var minis = map[string]*result{}

func runMini(t *testing.T, def *workloadDef, traced bool) *result {
	t.Helper()
	key := fmt.Sprint(def.name, traced)
	if res := minis[key]; res != nil {
		return res
	}
	res := runMiniOnce(t, miniature(def), traced)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d notes=%v", def.name, res.Correct, res.Failed, res.Notes)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: nothing attempted", def.name)
	}
	minis[key] = res
	return res
}

// runMiniOnce runs one instance of an already shrunk workload.
func runMiniOnce(t *testing.T, def *workloadDef, traced bool) *result {
	t.Helper()
	res, _, err := runInstances(def, runCfg{seed: 7, seconds: miniWindow, traced: traced}, 1, nil)
	if err != nil {
		t.Fatalf("%s: %v", def.name, err)
	}
	return res
}

// TestWorkloadsPassTheirChecks runs every workload at miniature scale,
// untraced and traced, and requires every per-operation and final check
// to pass.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, def := range workloads {
		runMini(t, def, false)
		runMini(t, def, true)
	}
}

// TestPaperMixedRepeatsExactly: with one caller and no timers, the same
// seed gives the same coordination ratio and engine counters.
func TestPaperMixedRepeatsExactly(t *testing.T) {
	for _, traced := range []bool{false, true} {
		a, b := runMini(t, paperMixed, traced), runMiniOnce(t, miniature(paperMixed), traced)
		for _, name := range []string{"coordination_ratio", "ok_share", "core.coordination_ratio",
			"core.cache_hit_ratio", "core.forced_by_read", "formula.solves_per_submit"} {
			if _, ok := a.Metrics[name]; ok && a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("traced=%v: %s = %v, then %v", traced, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

// TestReferenceSpeed: a workload with atRefSpeed reports its times as they
// would have been at the reference machine speed, the others as measured.
func TestReferenceSpeed(t *testing.T) {
	half := refNominal / 2 // a machine slowed to half speed doubles every time
	if got := rowscanWire.timeAtRef(100, half); got != 50 {
		t.Errorf("100 us measured at half speed = %v us at reference speed, want 50", got)
	}
	if got := rowscanWire.rateAtRef(100, half); got != 200 {
		t.Errorf("100 op/s measured at half speed = %v op/s at reference speed, want 200", got)
	}
	if bookingWire.timeAtRef(100, half) != 100 || bookingWire.rateAtRef(100, half) != 100 {
		t.Error("booking_wire must report times as measured")
	}
	for _, def := range workloads {
		m := runMini(t, def, false).Metrics
		for _, name := range []string{"setup_s", "ops_per_s", "op_p50_us"} {
			if converted := m["raw_"+name].Value != m[name].Value; converted != def.atRefSpeed {
				t.Errorf("%s: %s = %v, raw %v; converted must be %v", def.name, name, m[name].Value, m["raw_"+name].Value, def.atRefSpeed)
			}
		}
		if sp := m["machine_speed"].Value; sp < 0.05 || sp > 20 {
			t.Errorf("%s: machine speed %v of the reference", def.name, sp)
		}
	}
}

// wrongSeat makes the first read past the warm-up expect a seat the
// database does not hold, which is what a wrong answer looks like to the
// checker.
type wrongSeat struct {
	generator
	skip int
	done bool
}

func (g *wrongSeat) next() (op, bool) {
	o, ok := g.generator.next()
	if g.skip--; ok && g.skip < 0 && !g.done && o.kind == opRead {
		o.seat, g.done = "nowhere", true
	}
	return o, ok
}

// TestWrongAnswerFailsTheRun: one wrong answer among thousands of right
// ones makes the run incorrect, not merely 0.1% less ok.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	def := miniature(rowscanWire)
	gen := def.gen
	def.gen = func(seed int64, client int, d *workloadDef) generator {
		return &wrongSeat{generator: gen(seed, client, d), skip: d.warmOps, done: client != 0}
	}
	res := runMiniOnce(t, def, false)
	if res.Correct || res.Failed != 1 {
		t.Errorf("one wrong answer: correct=%v failed=%d, want false and 1; notes %v", res.Correct, res.Failed, res.Notes)
	}
}

// TestGateStillNeeded pins the engine defect workloadDef.gate works
// around: a reader that re-enters the store's read lock (as a chain solve
// does from inside a scan callback) while a Snapshot call waits for the
// write lock never gets in. Once that no longer holds, this test fails on
// purpose: drop the gate, put checkpoints back into the timed phases, and
// measure rates and bounds again (see "The gate" in the README).
func TestGateStillNeeded(t *testing.T) {
	db := buildStore(worldSpec{flights: 1, rows: 1})
	reentered := false
	snapshotDone, nested := make(chan struct{}), make(chan struct{})
	db.Scan("Available", func(value.Tuple) bool {
		go func() {
			db.Snapshot().Release()
			close(snapshotDone)
		}()
		// Nothing shows a goroutine queued on the write lock; give it time.
		time.Sleep(50 * time.Millisecond)
		go func() {
			db.Len("Available")
			close(nested)
		}()
		select {
		case <-nested:
			reentered = true
		case <-time.After(200 * time.Millisecond):
		}
		return false // leaving the scan lets Snapshot, then the nested reader, through
	})
	<-snapshotDone
	<-nested
	if reentered {
		t.Fatal("relstore no longer parks a nested reader behind a waiting Snapshot: " +
			"the workaround workloadDef.gate is obsolete. Remove it, run checkpoints inside the timed phases, " +
			"and re-measure the rates in defs.go and the bounds in BENCHMARK.json")
	}
}

// TestDeclaredNames holds the metric and workload names the program emits
// equal to the sets BENCHMARK.json declares, in both directions, with the
// units and directions it declares.
func TestDeclaredNames(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	type entry struct{ unit, better string }
	declared := func(kind string, names []string, entries []entry) map[string]entry {
		out := map[string]entry{}
		for i, n := range names {
			if !nameRE.MatchString(n) {
				t.Errorf("%s name %q does not match %s", kind, n, nameRE)
			}
			if _, dup := out[n]; dup {
				t.Errorf("%s name %q declared twice", kind, n)
			}
			out[n] = entries[i]
		}
		return out
	}
	var wNames []string
	for _, w := range bf.Workloads {
		wNames = append(wNames, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(wNames, have) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program runs %v", wNames, have)
	}
	declared("workload", wNames, make([]entry, len(wNames)))

	var eNames, pNames []string
	var eEntries, pEntries []entry
	for _, m := range bf.EndToEnd {
		eNames, eEntries = append(eNames, m.Name), append(eEntries, entry{m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		pNames, pEntries = append(pNames, m.Name), append(pEntries, entry{m.Unit, m.Better})
	}
	for _, c := range []struct {
		kind string
		json map[string]entry
		code []decl
	}{
		{"end_to_end", declared("end_to_end", eNames, eEntries), endToEnd},
		{"per_layer", declared("per_layer", pNames, pEntries), perLayer},
	} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", c.kind, len(c.json), len(c.code))
		}
		for _, d := range c.code {
			if got, ok := c.json[d.name]; !ok {
				t.Errorf("%s: %s is emitted but not declared in BENCHMARK.json", c.kind, d.name)
			} else if got != (entry{d.unit, d.better}) {
				t.Errorf("%s: %s declared as %v, emitted as %v", c.kind, d.name, got, entry{d.unit, d.better})
			}
		}
	}

	// What a run actually emits is the declared set of its mode.
	for _, traced := range []bool{false, true} {
		res := runMini(t, rowscanWire, traced)
		var line struct {
			Metrics map[string]struct{ Unit string } `json:"metrics"`
		}
		if err := jsonUnmarshal(res.driverLine(), &line); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("traced=%v: emitted %d metrics, declared %d", traced, len(line.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("traced=%v: %s missing or unit %q != %q", traced, d.name, m.Unit, d.unit)
			}
		}
	}
}

// TestSeedDeterminesInputs: the same seed yields a byte-identical
// operation stream for every client of every workload; another seed does
// not.
func TestSeedDeterminesInputs(t *testing.T) {
	const n = 3000
	streams := func(seed int64) map[string]uint64 {
		out := map[string]uint64{}
		out["paper_mixed"] = streamHash(&sliceGen{ops: paperRound(seed, paperFlights, paperRows, paperReadPct)}, n)
		for _, def := range workloads {
			if def.gen == nil {
				continue
			}
			for c := 0; c < def.clients; c++ {
				out[def.name+"/"+string(rune('0'+c))] = streamHash(def.gen(seed, c, def), n)
			}
		}
		return out
	}
	a, again, b := streams(11), streams(11), streams(12)
	if len(a) != 7 {
		t.Fatalf("hashed %d streams, want 7", len(a))
	}
	for k, h := range a {
		if again[k] != h {
			t.Errorf("%s: same seed gave different streams", k)
		}
		if b[k] == h {
			t.Errorf("%s: different seeds gave the same stream", k)
		}
	}
}

// TestImportHygiene: the benchmark shares no code with the repository's
// own harnesses, so changes to them cannot move its inputs; and nothing
// but sizes and paths reaches the engine's options.
func TestImportHygiene(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, dep := range strings.Fields(string(out)) {
		if dep == "repro/internal/bench" || strings.HasPrefix(dep, "repro/internal/bench/") || dep == "repro/internal/workload" {
			t.Errorf("benchmark depends on %s", dep)
		}
	}
	for _, def := range workloads {
		got := def.options("/dir")
		want := quantumdb.Options{K: def.k}
		if def.wal {
			want.WALPath, want.SyncWAL, want.WALSegments = "/dir/wal", true, 2
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine options %+v carry more than the declared sizes and paths %+v", def.name, got, want)
		}
	}
}

// TestCheckerCatchesBrokenEngines feeds the final-state checker what a
// broken engine would leave behind: a broken engine must not score.
func TestCheckerCatchesBrokenEngines(t *testing.T) {
	spec := worldSpec{flights: 1, rows: 2}
	fixture := func() (*expectation, []seatRow, []bookingRow) {
		e := newExpectation(spec)
		e.users["ann"], e.users["bob"] = 1, 1
		avail := []seatRow{{1, "1C"}, {1, "2A"}, {1, "2B"}, {1, "2C"}}
		bookings := []bookingRow{{"ann", 1, "1A"}, {"bob", 1, "1B"}}
		return e, avail, bookings
	}
	e, avail, bookings := fixture()
	if bad := e.check(avail, bookings); bad != nil {
		t.Fatalf("a correct state was rejected: %v", bad)
	}
	wantReport := func(name, needle string, bad []string) {
		t.Helper()
		if !strings.Contains(strings.Join(bad, "\n"), needle) {
			t.Errorf("%s not reported; got %v", name, bad)
		}
	}

	e, avail, bookings = fixture()
	bookings[1].seat = "1A" // bob on ann's seat
	wantReport("double-booked seat", "double-booked seat", e.check(avail, bookings))

	e, avail, bookings = fixture()
	avail = append(avail, seatRow{1, "1B"}) // bob's booking vanished, its seat came back
	wantReport("lost acknowledged write", "lost acknowledged write: bob", e.check(avail, bookings[:1]))

	e, avail, bookings = fixture()
	e.observed["ann"] = "2C" // a read showed ann another seat
	wantReport("unrepeatable read", "read not repeatable", e.check(avail, bookings))

	e, avail, bookings = fixture()
	wantReport("lost seat", "holds 5 seats", e.check(avail[1:], bookings))

	if compareReplica([]byte("same"), []byte("same")) != "" {
		t.Error("identical stores reported as diverged")
	}
	if d := compareReplica([]byte("leader state"), []byte("leader stale")); !strings.Contains(d, "diverged") {
		t.Errorf("follower/leader byte mismatch not reported: %q", d)
	}
}

// TestCompareVerdicts: -compare says worse only beyond the bound, and
// unresolved when the runs are too noisy to tell.
func TestCompareVerdicts(t *testing.T) {
	if s := spread([]float64{10, 11, 12, 13, 14}); s < 0.24 || s > 0.26 {
		t.Errorf("spread = %v, want 0.25 (quartiles 10.5 and 13.5 over median 12)", s)
	}
	var out bytes.Buffer
	dir := t.TempDir()
	write := func(name string, opsPerS ...float64) string {
		var runs []result
		for _, v := range opsPerS {
			runs = append(runs, result{Workload: "paper_mixed", Correct: true, Metrics: map[string]metricValue{"ops_per_s": {Value: v, Unit: "op/s"}}})
		}
		return writeJSON(t, dir+"/"+name, runs)
	}
	base := write("base.json", 1000, 1001, 1002)
	// "" finds BENCHMARK.json above the working directory.
	if code := compareFiles(base, write("same.json", 990, 995, 1000), "", &out, &out); code != 0 {
		t.Errorf("a 1%% change was called worse:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(base, write("slow.json", 600, 601, 602), "", &out, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 40%% drop was not called worse (exit %d):\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(base, write("noisy.json", 300, 1000, 1700), "", &out, &out); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy runs were not called unresolved (exit %d):\n%s", code, out.String())
	}

	// Failed operations have a zero bound, and a run that failed its
	// checks does not score.
	okShare := func(name string, correct bool, shares ...float64) string {
		var runs []result
		for _, v := range shares {
			runs = append(runs, result{Workload: "paper_mixed", Correct: correct, Metrics: map[string]metricValue{
				"ops_per_s": {Value: 1000, Unit: "op/s"}, "ok_share": {Value: v, Unit: "ratio"}}})
		}
		return writeJSON(t, dir+"/"+name, runs)
	}
	clean := okShare("clean.json", true, 1, 1, 1)
	out.Reset()
	if code := compareFiles(clean, okShare("onefail.json", true, 1, 0.9999, 1), "", &out, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("one failed operation in ten thousand was not called worse (exit %d):\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(clean, okShare("broken.json", false, 1, 1, 1), "", &out, &out); code != 1 || !strings.Contains(out.String(), "failed their checks") {
		t.Errorf("runs that failed their checks were scored (exit %d):\n%s", code, out.String())
	}
}

func jsonUnmarshal(s string, v any) error { return json.Unmarshal([]byte(s), v) }

func writeJSON(t *testing.T, path string, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// hashInto folds the operation into a stream hash; two streams are equal
// iff the system would see the same bytes in the same order.
func (o *op) hashInto(h interface{ Write([]byte) (int, error) }) {
	fmt.Fprintf(h, "%d|%s|%s|%s|%d|%s|%v|%d\n", o.kind, o.text, o.tag, o.partner, o.flight, o.seat, o.insert, o.dep)
	for _, t := range o.texts {
		fmt.Fprintf(h, "%s\n", t)
	}
}

// streamHash consumes n operations and returns their hash.
func streamHash(g generator, n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		o, ok := g.next()
		if !ok {
			break
		}
		o.hashInto(h)
	}
	return h.Sum64()
}
