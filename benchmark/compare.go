package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// findBenchmarkFile looks for BENCHMARK.json in the working directory and
// its parents, then in the directories above the executable (run.sh builds
// it into .bench_build/bin/ under the repository root), so that -compare
// works from anywhere inside a checkout.
func findBenchmarkFile() (string, error) {
	starts := []string{"."}
	if exe, err := os.Executable(); err == nil {
		starts = append(starts, filepath.Dir(exe))
	}
	for _, start := range starts {
		dir, err := filepath.Abs(start)
		if err != nil {
			continue
		}
		for {
			p := filepath.Join(dir, "BENCHMARK.json")
			if _, err := os.Stat(p); err == nil {
				return p, nil
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				break
			}
			dir = parent
		}
	}
	return "", fmt.Errorf("no BENCHMARK.json above the working directory or the executable; name it with -bounds")
}

// runSet is one side of a comparison.
type runSet struct {
	// values holds, per workload and metric, one value per untraced run
	// that passed its checks.
	values map[string]map[string][]float64
	// incorrect counts, per workload, the runs whose checks failed. Their
	// numbers are kept out of values: a broken engine must not score.
	incorrect map[string]int
}

// loadSet reads one side of a comparison: a comma-separated list of -out
// files, each holding one or more untraced runs.
func loadSet(arg string) (*runSet, error) {
	set := &runSet{values: map[string]map[string][]float64{}, incorrect: map[string]int{}}
	for _, path := range strings.Split(arg, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var runs []result
		if err := json.Unmarshal(b, &runs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range runs {
			if r.Traced {
				continue
			}
			if !r.Correct {
				set.incorrect[r.Workload]++
				continue
			}
			if set.values[r.Workload] == nil {
				set.values[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				set.values[r.Workload][name] = append(set.values[r.Workload][name], m.Value)
			}
		}
	}
	return set, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, the quartiles computed as Python's
// statistics.quantiles(v, n=4) does (0 with fewer than two values).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return ratio(q(3)-q(1), medianFloat(s))
}

// noFailures is the end-to-end metric with a zero bound: at the rates the
// benchmark fixes no operation may fail, so any run of the second side
// below 1 is worse, whatever BENCHMARK.json allows the driver.
const noFailures = "ok_share"

// compareFiles prints one row per workload and end-to-end metric: both
// medians, the change, the bound, and a verdict. A metric whose
// run-to-run spread on either side exceeds its bound is unresolved: the
// runs cannot tell a regression of that size from noise. Returns 1 when
// any metric got worse by more than its bound, when any operation of the
// second side failed, or when a run of either side failed its checks.
func compareFiles(a, b, boundsPath string, stdout, stderr io.Writer) int {
	var err error
	if boundsPath == "" {
		boundsPath, err = findBenchmarkFile()
	}
	var bf *benchmarkFile
	if err == nil {
		bf, err = readBenchmarkFile(boundsPath)
	}
	if err == nil && len(bf.EndToEnd) == 0 {
		err = fmt.Errorf("%s declares no end-to-end metrics", boundsPath)
	}
	var setA, setB *runSet
	if err == nil {
		setA, err = loadSet(a)
	}
	if err == nil {
		setB, err = loadSet(b)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	worse := 0
	fmt.Fprintf(stdout, "%-16s %-18s %14s %14s %9s %7s %8s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "change", "bound", "spread", "verdict")
	for _, w := range bf.Workloads {
		for i, set := range []*runSet{setA, setB} {
			if n := set.incorrect[w.Name]; n > 0 {
				fmt.Fprintf(stdout, "%-16s %d run(s) of side %c failed their checks and are left out: worse\n", w.Name, n, 'a'+i)
				worse++
			}
		}
		for _, m := range bf.EndToEnd {
			va, vb := setA.values[w.Name][m.Name], setB.values[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := medianFloat(va), medianFloat(vb)
			// change > 0 means b is worse than a.
			change := ratio(mb-ma, ma)
			if m.Better == "higher" {
				change = -change
			}
			sp := spread(va)
			if s := spread(vb); s > sp {
				sp = s
			}
			bound := m.Bound
			verdict := "ok"
			switch {
			case m.Name == noFailures:
				bound = 0
				if minFloat(vb) < 1 {
					verdict = "worse"
				}
			case sp > bound:
				verdict = "unresolved"
			case change > bound:
				verdict = "worse"
			}
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(stdout, "%-16s %-18s %14.4f %14.4f %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*change, 100*bound, 100*sp, verdict)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

func minFloat(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
