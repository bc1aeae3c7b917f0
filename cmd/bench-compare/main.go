// Command bench-compare diffs the scale rows of two committed bench
// trajectory records (BENCH_*.json): kernel rows are matched on
// (nodes, pods, shards) and control-plane rows on (apps, pods), and the
// run fails — exit 1 — when the new record regresses ms_per_tick,
// shard speedup or ms_per_period by more than the tolerance. CI runs it
// against the committed records so a scaling regression fails the PR
// instead of silently landing in the record.
//
// Usage:
//
//	bench-compare -old BENCH_15.json -new BENCH_16.json [-tolerance 0.15]
//
// Rows present on only one side are reported but never fail the run:
// ladders legitimately grow and shrink between PRs, old records predate
// whole row families (kernel rows arrived with figure6, control-plane
// rows with figure12), and absolute wall times only compare within one
// machine anyway. Control-plane rows measured with more than one worker
// (the "ctrl_workers" field of records before BENCH_16) are listed as
// removed: the parallel control plane they timed no longer exists.
//
// 1-shard kernel rows and every control-plane row fail on the absolute
// ms check alone. Multi-shard rows fail only when BOTH the absolute ms
// check and the within-record speedup check regress: speedup is a ratio
// against the same record's 1-shard baseline, so the two checks
// disagreeing is exactly the signature of the shared baseline having
// moved between records (machine drift, or a serial-path change) —
// dividing the two speedups then compares different denominators and
// would misattribute the baseline shift to the parallel row. A genuine
// parallel-path regression slows the row both absolutely and relative
// to its own baseline, failing both checks; a genuine serial-path
// regression fails the 1-shard row directly.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// scaleRow mirrors the fields of harness.ScaleRow that both record
// generations carry; unknown fields are ignored so old records parse.
type scaleRow struct {
	Nodes     int     `json:"nodes"`
	Pods      int     `json:"pods"`
	Shards    int     `json:"shards"`
	MSPerTick float64 `json:"ms_per_tick"`
	Speedup   float64 `json:"speedup"`
	// Latency-tail field (zero in records that predate it).
	TickMaxMS float64 `json:"tick_max_ms"`
}

// ctrlRow mirrors harness.CtrlScaleRow. Workers is the "ctrl_workers"
// field of records before BENCH_16 (absent, so zero, since); only rows
// with Workers <= 1 timed the control step that still exists.
type ctrlRow struct {
	Apps        int     `json:"apps"`
	Pods        int     `json:"pods"`
	Workers     int     `json:"ctrl_workers"`
	MSPerPeriod float64 `json:"ms_per_period"`
	EvalMS      float64 `json:"eval_ms"`
	ApplyMS     float64 `json:"apply_ms"`
}

type pointKey struct{ Nodes, Pods, Shards int }

type ctrlKey struct{ Apps, Pods int }

// record is one bench record's comparable rows.
type record struct {
	kernel map[pointKey]scaleRow
	ctrl   map[ctrlKey]ctrlRow
	// multiWorker holds control-plane rows timed with more than one
	// worker; they have no counterpart in current records.
	multiWorker []ctrlRow
}

// readRecord extracts the kernel and control-plane scale rows from a
// bench record: a JSONL stream whose summary line carries them under
// "scale" and "ctrl_scale".
func readRecord(path string) (*record, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("baseline record %s does not exist — generate it on the base revision with `make bench-json` (or point -old at the last committed BENCH_*.json)", path)
		}
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	rec := &record{kernel: map[pointKey]scaleRow{}, ctrl: map[ctrlKey]ctrlRow{}}
	found := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var sum struct {
			ID        string     `json:"id"`
			Scale     []scaleRow `json:"scale"`
			CtrlScale []ctrlRow  `json:"ctrl_scale"`
		}
		if err := json.Unmarshal(line, &sum); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if sum.ID != "summary" {
			continue
		}
		found = true
		for _, row := range sum.Scale {
			rec.kernel[pointKey{row.Nodes, row.Pods, row.Shards}] = row
		}
		for _, row := range sum.CtrlScale {
			if row.Workers > 1 {
				rec.multiWorker = append(rec.multiWorker, row)
				continue
			}
			rec.ctrl[ctrlKey{row.Apps, row.Pods}] = row
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !found {
		return nil, fmt.Errorf("%s: no summary line — was it written with `evolve-bench -json`?", path)
	}
	return rec, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command over explicit arguments and streams; it
// returns the exit code: 0 within tolerance, 1 on a regression or a
// bad record, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench-compare", flag.ContinueOnError)
	fl.SetOutput(stderr)
	oldPath := fl.String("old", "", "baseline bench record (e.g. BENCH_15.json)")
	newPath := fl.String("new", "", "candidate bench record (e.g. BENCH_16.json)")
	tolerance := fl.Float64("tolerance", 0.15, "allowed fractional regression in ms_per_tick, ms_per_period and speedup")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "bench-compare: -old and -new are required")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench-compare:", err)
		return 1
	}

	old, err := readRecord(*oldPath)
	if err != nil {
		return fail(err)
	}
	nw, err := readRecord(*newPath)
	if err != nil {
		return fail(err)
	}
	if len(nw.kernel) == 0 && len(nw.ctrl) == 0 {
		return fail(fmt.Errorf("%s carries no scale rows — run evolve-bench with figure6 and/or figure12 selected", *newPath))
	}

	failures := 0
	compared := 0
	if len(nw.kernel) > 0 && len(old.kernel) == 0 {
		fmt.Fprintf(stdout, "note: %s carries no kernel scale rows (pre-figure6 record?); skipping the kernel comparison\n", *oldPath)
	}
	if len(nw.kernel) > 0 {
		f, c := compareKernel(stdout, old.kernel, nw.kernel, *newPath, *tolerance)
		failures += f
		compared += c
	}
	if len(nw.ctrl) > 0 && len(old.ctrl) == 0 {
		fmt.Fprintf(stdout, "note: %s carries no 1-worker control-plane rows (pre-figure12 record?); skipping the control-plane comparison\n", *oldPath)
	}
	if len(nw.ctrl) > 0 {
		f, c := compareCtrl(stdout, old.ctrl, nw.ctrl, *newPath, *tolerance)
		failures += f
		compared += c
	}
	printRemoved(stdout, *oldPath, old.multiWorker)
	if compared == 0 {
		return fail(fmt.Errorf("no comparable rows between %s and %s (ladders share no points)", *oldPath, *newPath))
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "bench-compare: %d row(s) regressed beyond %.0f%%\n", failures, *tolerance*100)
		return 1
	}
	fmt.Fprintf(stdout, "bench-compare: %d row(s) within %.0f%% tolerance\n", compared, *tolerance*100)
	return 0
}

// printRemoved lists the old record's multi-worker control-plane rows:
// they timed the parallel control plane, which has no counterpart to
// compare against.
func printRemoved(w io.Writer, path string, rows []ctrlRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Apps != b.Apps {
			return a.Apps < b.Apps
		}
		if a.Pods != b.Pods {
			return a.Pods < b.Pods
		}
		return a.Workers < b.Workers
	})
	for _, row := range rows {
		fmt.Fprintf(w, "GONE  %5d apps %8d pods %2d workers: removed row in %s (the parallel control plane no longer exists)\n",
			row.Apps, row.Pods, row.Workers, path)
	}
}

// compareKernel diffs the figure6 kernel rows; returns (failures,
// compared).
func compareKernel(w io.Writer, oldRows, newRows map[pointKey]scaleRow, newPath string, tolerance float64) (int, int) {
	keys := make([]pointKey, 0, len(newRows))
	for key := range newRows {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Pods != b.Pods {
			return a.Pods < b.Pods
		}
		if a.Nodes != b.Nodes {
			return a.Nodes < b.Nodes
		}
		return a.Shards < b.Shards
	})
	failures, compared := 0, 0
	for _, key := range keys {
		nw := newRows[key]
		old, ok := oldRows[key]
		if !ok {
			fmt.Fprintf(w, "NEW   %6d nodes %8d pods %2d shards: %.3f ms/tick (no baseline row)\n",
				key.Nodes, key.Pods, key.Shards, nw.MSPerTick)
			continue
		}
		compared++
		msBad := old.MSPerTick > 0 && nw.MSPerTick > old.MSPerTick*(1+tolerance)
		spBad := old.Speedup > 0 && nw.Speedup < old.Speedup/(1+tolerance)
		status, note := verdict(key.Shards > 1, msBad, spBad)
		if status == "FAIL" {
			failures++
		}
		fmt.Fprintf(w, "%s  %6d nodes %8d pods %2d shards: %8.3f -> %8.3f ms/tick (%+.1f%%), speedup %.2fx -> %.2fx%s\n",
			status, key.Nodes, key.Pods, key.Shards,
			old.MSPerTick, nw.MSPerTick, 100*(nw.MSPerTick-old.MSPerTick)/old.MSPerTick,
			old.Speedup, nw.Speedup, note)
	}
	for key := range oldRows {
		if _, ok := newRows[key]; !ok {
			fmt.Fprintf(w, "GONE  %6d nodes %8d pods %2d shards: row absent from %s\n",
				key.Nodes, key.Pods, key.Shards, newPath)
		}
	}
	printLatencySummary(w, keys, newRows)
	return failures, compared
}

// compareCtrl diffs the figure12 control-plane rows on ms_per_period;
// returns (failures, compared).
func compareCtrl(w io.Writer, oldCtrl, newCtrl map[ctrlKey]ctrlRow, newPath string, tolerance float64) (int, int) {
	keys := make([]ctrlKey, 0, len(newCtrl))
	for key := range newCtrl {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Apps != b.Apps {
			return a.Apps < b.Apps
		}
		return a.Pods < b.Pods
	})
	failures, compared := 0, 0
	fmt.Fprintf(w, "\ncontrol plane (figure12):\n")
	for _, key := range keys {
		nw := newCtrl[key]
		old, ok := oldCtrl[key]
		if !ok {
			fmt.Fprintf(w, "NEW   %5d apps %8d pods: %.3f ms/period (eval %.3f, apply %.3f; no baseline row)\n",
				key.Apps, key.Pods, nw.MSPerPeriod, nw.EvalMS, nw.ApplyMS)
			continue
		}
		compared++
		status := "ok  "
		if old.MSPerPeriod > 0 && nw.MSPerPeriod > old.MSPerPeriod*(1+tolerance) {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "%s  %5d apps %8d pods: %8.3f -> %8.3f ms/period (%+.1f%%), eval %.3f, apply %.3f\n",
			status, key.Apps, key.Pods,
			old.MSPerPeriod, nw.MSPerPeriod, 100*(nw.MSPerPeriod-old.MSPerPeriod)/old.MSPerPeriod,
			nw.EvalMS, nw.ApplyMS)
	}
	for key := range oldCtrl {
		if _, ok := newCtrl[key]; !ok {
			fmt.Fprintf(w, "GONE  %5d apps %8d pods: row absent from %s\n", key.Apps, key.Pods, newPath)
		}
	}
	return failures, compared
}

// verdict decides a kernel row's status from its two checks. 1-shard
// rows are judged on absolute ms alone (their speedup is identically
// 1). A multi-shard row fails only when ms and speedup agree it
// regressed: the speedup ratio factors as baselineDrift ×
// msImprovement, so when the two checks disagree the discrepancy lives
// in the 1-shard baseline the speedups share, not in this row — the
// note says which way.
func verdict(parallel, msBad, spBad bool) (string, string) {
	switch {
	case !parallel:
		if msBad {
			return "FAIL", ""
		}
	case msBad && spBad:
		return "FAIL", ""
	case spBad:
		return "ok  ", "  (speedup shift tracks the 1-shard baseline; ms within tolerance)"
	case msBad:
		return "ok  ", "  (ms shift tracks the 1-shard baseline; speedup within tolerance)"
	}
	return "ok  ", ""
}

// printLatencySummary renders the candidate record's tick-latency tail:
// mean vs worst tick, for rows that carry the histogram-derived field
// (older records simply skip the block).
// The tail/mean ratio is the number to watch — a flat ratio across
// shard counts means the barrier is not stretching the worst tick.
func printLatencySummary(w io.Writer, keys []pointKey, rows map[pointKey]scaleRow) {
	header := false
	for _, key := range keys {
		row := rows[key]
		if row.TickMaxMS <= 0 {
			continue
		}
		if !header {
			fmt.Fprintf(w, "\ntick latency (candidate record):\n")
			header = true
		}
		ratio := 0.0
		if row.MSPerTick > 0 {
			ratio = row.TickMaxMS / row.MSPerTick
		}
		fmt.Fprintf(w, "      %6d nodes %8d pods %2d shards: mean %8.3f ms, worst %8.3f ms (%4.1fx)\n",
			key.Nodes, key.Pods, key.Shards, row.MSPerTick, row.TickMaxMS, ratio)
	}
}
