// Command benchmark is the repository's benchmark: four named workloads
// over the quantum database, each checked for correct answers, reporting
// end-to-end metrics (an untraced run) or per-layer metrics (a traced
// run). See README.md in this directory.
//
// It generates its own inputs from -seed and drives the system only
// through its public entry points; it shares no code with internal/bench
// or internal/workload, so changes there cannot move its inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	workload := fs.String("workload", "", "run one workload: "+strings.Join(names, ", ")+
		" (default: all four untraced, then all four traced)")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 15, "measured time per run: half capacity phase, half fixed-rate phase")
	scale := fs.Float64("scale", 1, "multiplier on -seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	out := fs.String("out", "", "write every run's metrics to this file as JSON")
	traceOut := fs.String("trace-out", "", "write spans and counter snapshots of traced runs to this file as JSON lines")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	bounds := fs.String("bounds", "", "with -compare: the file that fixes each metric's bound (default: the BENCHMARK.json above the working directory or the executable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), *bounds, stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds**scale <= 0 {
		fmt.Fprintln(stderr, "-seconds x -scale must be positive")
		return 2
	}

	type job struct {
		def *workloadDef
		cfg runCfg
	}
	var jobs []job
	cfg := runCfg{seed: *seed, seconds: *seconds * *scale, traced: *trace != 0}
	if *workload != "" {
		def := findWorkload(*workload)
		if def == nil {
			fmt.Fprintf(stderr, "unknown workload %q; have %s\n", *workload, strings.Join(names, ", "))
			return 2
		}
		jobs = []job{{def, cfg}}
	} else {
		// Everything: the untraced runs give the end-to-end numbers,
		// the traced runs, a third as long, the per-layer ones.
		for _, def := range workloads {
			c := cfg
			c.traced = false
			jobs = append(jobs, job{def, c})
		}
		for _, def := range workloads {
			c := cfg
			c.traced, c.seconds = true, cfg.seconds/3
			jobs = append(jobs, job{def, c})
		}
	}

	start := time.Now()
	var results []*result
	var tracers []*tracer
	ok := true
	for _, j := range jobs {
		res, trs, err := runWorkload(j.def, j.cfg, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		tracers = append(tracers, trs...)
		res.print(stdout)
		results = append(results, res)
		ok = ok && res.Correct
	}
	if *out != "" {
		b, _ := json.MarshalIndent(results, "", " ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := writeTraces(*traceOut, tracers); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: correctness checks failed; see the notes above")
		return 1
	}
	if len(results) == 1 {
		// The driver reads the last line of standard output.
		fmt.Fprintln(stdout, results[0].driverLine())
	} else {
		fmt.Fprintf(stdout, "\ntotal wall time %.1fs\n", time.Since(start).Seconds())
	}
	return 0
}
