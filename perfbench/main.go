// Command perfbench is the repository's same-host benchmark: host cost per
// simulated request on three core.Cluster workloads, end to end, plus a
// traced, profiled pass that splits the cost by layer. README.md explains
// the workloads, the metrics and how to run an A/B against a parent commit.
//
//	perfbench --workload boutique-closed --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload name (boutique-closed, tenants-open, fabric-chaos)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "approximate host seconds to measure; sizes the virtual window")
	traced := flag.Int("trace", 0, "1 runs the traced, profiled pass and reports the per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*traced != 0 && *traced != 1)) {
		err = fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	// The engine is single-threaded. One P keeps the Proc handoff on one
	// core and charges garbage collection to the measured thread instead
	// of to whichever core happens to be idle, which steadies the figures.
	runtime.GOMAXPROCS(1)
	outDir := os.Getenv("CARGO_TARGET_DIR")
	if outDir == "" {
		outDir = ".bench_build"
	}
	res, err := run(w, *seed, time.Duration(*seconds)*w.virtPerHostSec, *traced == 1, outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.correct() {
		for _, f := range res.failures {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
		}
		os.Exit(1)
	}
}

// metric is one named, unit-tagged figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value on the human-readable line
}

// print writes one human-readable line per metric, then the JSON summary
// as the last line.
func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "# %s seed=%d trace=%v window=%v (virtual) gomaxprocs=%d\n",
		r.workload, r.seed, r.traced, r.window, r.gomaxprocs)
	for _, n := range r.notes {
		fmt.Fprintf(f, "# %s\n", n)
	}
	fmt.Fprintf(f, "%-28s %16x\n", "sim_digest", r.digest)
	for _, ms := range [][]metric{r.metrics, r.extra} {
		for _, m := range ms {
			fmt.Fprintf(f, "%-28s %16.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
	failed := r.unanswered
	if !r.correct() {
		failed = r.attempted
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, failed, map[string]value{}}
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only finite floats and strings reach Marshal
	}
	fmt.Fprintln(f, string(b))
}
