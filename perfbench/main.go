// Command perfbench is the repository benchmark. It drives the real
// blowfishd binary on a loopback address with its shipped default flags,
// from one process running a closed loop of two callers, checks every
// reply, and prints the end-to-end metrics (--trace 0) or, from a separate
// in-process run that times each layer's public functions on the same
// generated inputs, the per-layer metrics (--trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds the daemon
// and this program first:
//
//	bash perfbench/run.sh --workload stream_grid --seed 7 --seconds 30 --trace 0
//
// Workloads, metrics and the layer map are described in perfbench/LAYERS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "answer_wire, answer_durable or stream_grid")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 30, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	)
	flag.Parse()
	_, ok := fullShapes[*workload]
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(slices.Sorted(maps.Keys(fullShapes)), ", "))
		os.Exit(2)
	}
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(config{
		workload: *workload, shapes: fullShapes, seed: *seed, seconds: *seconds, trace: *trace == 1,
		daemon: filepath.Join(build, "blowfishd"), workDir: build,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
