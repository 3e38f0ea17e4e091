// Command perfbench measures how fast Minkowski simulates: simulated
// seconds per wall second, CPU, allocation and heap per simulated hour,
// and set-up time, over three workloads (fleet-steady, solve-storm,
// chaos-trials). With -trace 1 it instead reports per-layer numbers
// from a CPU profile, timing decorators on the controller's seams, and
// the program's public counters. It drives the program only through
// its public API and checks every operation's output.
//
// Usage:
//
//	perfbench -workload fleet-steady -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: fleet-steady, solve-storm or chaos-trials")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measurement budget in wall seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res = runTraced(w, *seed, budget)
	} else {
		res = runUntraced(w, *seed, budget)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts operations and reports each one's correctness and
// digests on standard output, so two commits can be compared for
// byte identity.
type tally struct {
	workload          string
	attempted, failed int
}

func (t *tally) record(op *opResult) {
	t.attempted++
	status := "ok"
	if op.problem != "" {
		t.failed++
		status = "FAIL: " + op.problem
	}
	fmt.Printf("op %s %s sim_h=%g setup_s=%.4f wall_s=%.3f cpu_s=%.3f alloc_mb=%.1f peak_heap_mb=%.1f %s\n",
		t.workload, op.digest, op.simH(), op.setup.Seconds(), op.wall.Seconds(),
		op.use.cpu.Seconds(), float64(op.use.alloc)/1e6, float64(op.peak)/1e6, status)
}

func (t *tally) result(metrics map[string]metric) result {
	return result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio returns a/b, or 0 when b is 0 (a layer or seam a workload
// does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
