// Command e2ebench is the whole-run benchmark of the evolve simulator.
// It drives the public facade through three named worlds, from
// evolve.New to the end of a fixed simulated horizon, and reports host
// (wall) cost per simulated hour, set-up, memory and checkpoint figures.
// With -trace 1 it instead makes one traced run per workload and splits
// the wall time over the simulator's layers. See README.md.
//
// Usage:
//
//	e2ebench -workload converged-day -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger counts operations — Run slices, checkpoints, restores and
// correctness checks — and the ones that failed. A failed check is
// logged to standard error with its reason.
type ledger struct {
	attempted, failed int
}

// op records one operation and reports whether it succeeded.
func (l *ledger) op(err error) bool {
	l.attempted++
	if err != nil {
		l.failed++
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return false
	}
	return true
}

// check records a correctness check.
func (l *ledger) check(ok bool, format string, args ...any) bool {
	if ok {
		return l.op(nil)
	}
	return l.op(fmt.Errorf("check failed: "+format, args...))
}

func main() {
	workload := flag.String("workload", "", "workload to run: converged-day, fleet-static or many-apps")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 20, "wall seconds of untraced episodes")
	trace := flag.Int("trace", 0, "1 makes the traced per-layer run instead of the untraced one")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be at least 1")
		os.Exit(2)
	}
	// At default Options the simulator runs on one goroutine; the only
	// parallel work is the garbage collector. One P puts the collector's
	// CPU time into the measured time instead of onto the other core,
	// where the host's contention turns it into noise.
	runtime.GOMAXPROCS(1)
	w, err := newWorld(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	var (
		l   ledger
		out map[string]metric
	)
	if *trace == 1 {
		out, err = tracedRun(w, &l)
	} else {
		out, err = untracedRuns(w, time.Duration(*seconds)*time.Second, &l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
