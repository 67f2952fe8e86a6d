package main

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"time"
)

// The build machine is a shared virtual machine whose processor speed the
// host moves by a third for minutes at a time (see the README for the
// measurements), and the times of a workload move with it by more than any
// bound the benchmark may set. An instance therefore reads the machine's
// speed around every timed interval, and a workload with atRefSpeed set
// reports its set-up time, throughput and median latency as they would
// have been at refNominal: what the program under test costs, with what
// the host did taken out: paper_mixed and rowscan_wire, whose time is all
// processor time. The two workloads with a log report them as measured;
// defs.go says why.

// refSlice is how long one reading of the machine's speed takes (the
// selftest shortens it).
var refSlice = 100 * time.Millisecond

// refNominal is the reference loop's speed on the build machine when the
// host leaves it alone, in iterations per second over both processors. At
// this speed a time at reference speed equals the time measured.
const refNominal = 270000.0

// refTable is what the reference loop looks things up in: big enough to
// miss the first-level caches, as the engine's maps do.
var refTable = func() map[int]int {
	m := make(map[int]int, 1<<16)
	for i := 0; i < 1<<16; i++ {
		m[i] = i
	}
	return m
}()

// machineSpeed reads how fast the machine is right now: iterations per
// second of a fixed loop (hashing, map lookups, a small allocation) run on
// every processor for refSlice. The loop calls nothing of the system under
// test, so it moves with the machine and never with a change to the engine.
func machineSpeed() float64 {
	procs := runtime.GOMAXPROCS(0)
	counts := make([]int, procs)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(refSlice)
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 4096)
			x, n := 0, 0
			for time.Now().Before(end) {
				s := sha256.Sum256(buf)
				for k := 0; k < 64; k++ {
					x += refTable[(int(s[k%32])*257+k*n)&0xffff]
				}
				buf = append(make([]byte, 0, 4096), buf...)
				buf[n&4095] = byte(x)
				n++
			}
			counts[g] = n
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / time.Since(start).Seconds()
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// timeAtRef converts a time this workload measured while the machine ran
// at speed to the time at refNominal; rateAtRef does the same for a rate.
// A workload without atRefSpeed reports both as measured.
func (d *workloadDef) timeAtRef(v, speed float64) float64 {
	if !d.atRefSpeed || speed <= 0 {
		return v
	}
	return v * speed / refNominal
}

func (d *workloadDef) rateAtRef(v, speed float64) float64 {
	if !d.atRefSpeed || speed <= 0 {
		return v
	}
	return v * refNominal / speed
}
