package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/bench/serverload"
)

// Server data-plane experiment. Two modes:
//
//	qdbbench -exp server                      # in-process shape sweep
//	qdbbench -exp server -addr HOST:PORT ...  # open-loop against a running qdbd
//
// External mode is what the CI server-load smoke job runs: it drives a
// fixed request rate at a booted daemon, reports the generator's
// client-observed latencies, and — when -metrics-url points at the
// daemon's /debug/vars — gates on the SERVER-side op-latency p99 and
// the shed counter, turning "the data plane keeps up at nominal load"
// into an exit code.

func runServerExp(cfg serverload.ServerConfig, addr, metricsURL string,
	p99Max time.Duration, maxSheds int64) error {
	if addr == "" {
		return renderServerSweep()
	}
	res, err := serverload.DriveServerLoad(addr, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("server load: %d requests (%d txns) in %v over %d conns\n",
		res.Requests, res.Txns, res.Elapsed.Round(time.Millisecond), cfg.Conns)
	fmt.Printf("throughput: %.0f txn/s\n", res.Throughput())
	fmt.Printf("client latency: p50=%v p99=%v\n",
		time.Duration(res.Lat.P50).Round(time.Microsecond),
		time.Duration(res.Lat.P99).Round(time.Microsecond))
	fmt.Printf("client-observed sheds: %d\n", res.Sheds)
	if metricsURL == "" {
		return nil
	}
	p99, sheds, err := fetchServerMetrics(metricsURL)
	if err != nil {
		return err
	}
	fmt.Printf("server op p99: %v\n", p99.Round(time.Microsecond))
	fmt.Printf("server sheds: %d\n", sheds)
	if p99Max > 0 && p99 > p99Max {
		return fmt.Errorf("server op p99 %v exceeds gate %v", p99, p99Max)
	}
	if maxSheds >= 0 && sheds > maxSheds {
		return fmt.Errorf("server shed %d requests, gate allows %d", sheds, maxSheds)
	}
	return nil
}

// renderServerSweep measures the canonical shapes in-process and prints
// them.
func renderServerSweep() error {
	fmt.Printf("Server data plane: %-28s%12s%12s%12s%8s\n",
		"shape", "txn/s", "p50", "p99", "sheds")
	for _, s := range serverload.ServerShapes() {
		r, err := serverload.RunServerLoad(s.Cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		fmt.Printf("%43s%12.0f%12s%12s%8d\n",
			s.Name, r.Throughput(),
			time.Duration(r.Lat.P50).Round(time.Microsecond),
			time.Duration(r.Lat.P99).Round(time.Microsecond),
			r.Sheds)
	}
	return nil
}

// fetchServerMetrics pulls the daemon's /debug/vars snapshot and
// extracts the worst per-op p99 of qdb_server_op_duration_seconds
// (nanosecond-native histograms) plus the shed counter.
func fetchServerMetrics(url string) (p99 time.Duration, sheds int64, err error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return 0, 0, fmt.Errorf("fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("fetching %s: HTTP %d", url, resp.StatusCode)
	}
	var doc struct {
		Metrics    map[string]int64 `json:"metrics"`
		Histograms []struct {
			Name   string  `json:"name"`
			Labels string  `json:"labels"`
			Count  int64   `json:"count"`
			P99    float64 `json:"p99"`
		} `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, 0, fmt.Errorf("decoding %s: %w", url, err)
	}
	found := false
	for _, h := range doc.Histograms {
		if h.Name != "qdb_server_op_duration_seconds" || h.Count == 0 {
			continue
		}
		found = true
		if d := time.Duration(h.P99); d > p99 {
			p99 = d
		}
	}
	if !found {
		return 0, 0, fmt.Errorf("%s has no qdb_server_op_duration_seconds samples", url)
	}
	sheds = doc.Metrics["qdb_server_shed_total"]
	return p99, sheds, nil
}
