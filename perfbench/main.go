// Command perfbench is the repository's benchmark: it runs one workload
// against an in-process cluster, checks the outputs, and prints every metric
// by name and unit. The last line of its output is one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//	bash perfbench/run.sh --workload write --seed 1 --seconds 25 --trace 0
//
// It runs from the repository root; storage and span files go under
// .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "write, read-mostly, bank or failover")
		seed     = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds  = flag.Int("seconds", 25, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace bool) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d < 1", seconds)
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "run"))
	if err != nil {
		return err
	}
	cfg := runConfig{
		workload: workload,
		seed:     seed,
		window:   time.Duration(seconds) * time.Second,
		warm:     time.Second,
		setups:   3,
		trace:    trace,
		dir:      dir,
	}
	for _, kv := range envStamp(seed, seconds) {
		fmt.Printf("env %-14s %s\n", kv[0], kv[1])
	}
	res, err := fn(cfg)
	if err != nil {
		return err
	}
	printResult(os.Stdout, workload, res)
	if res.gate != nil {
		return fmt.Errorf("correctness gate: %w", res.gate)
	}
	return nil
}

// printResult prints the metrics as a table, then the JSON result line.
func printResult(out *os.File, workload string, res *result) {
	ms := res.e2e
	if res.layer != nil {
		ms = res.layer
	}
	fmt.Fprintf(out, "workload %s: attempted %d, failed %d\n", workload, res.attempted, res.failed)
	if res.layer != nil {
		for _, m := range res.e2e {
			fmt.Fprintf(out, "  %-34s %14.4f %s (traced run)\n", m.name, m.value, m.unit)
		}
	}
	for _, m := range ms {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if res.layer == nil {
		for _, m := range res.info {
			fmt.Fprintf(out, "  %-34s %14.4f %s (not gated)\n", m.name, m.value, m.unit)
		}
	}
	if res.gate != nil {
		fmt.Fprintf(out, "GATE FAILED: %v\n", res.gate)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: res.gate == nil, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]jm)}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[m.name] = jm{Value: v, Unit: m.unit}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintln(out, string(b))
}
