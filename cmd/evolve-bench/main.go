// Command evolve-bench regenerates every table and figure of the
// reconstructed evaluation (see EXPERIMENTS.md): it runs the scenario
// mixes under all policies, renders the ASCII tables and figure summaries
// to stdout, and optionally writes the raw CSV data for plotting.
//
// All (scenario, policy) simulations flow through one harness.Runner:
// independent runs fan out across -parallel workers, and the run cache
// deduplicates the (mix, seed, policy) combinations that several tables
// and figures share — even at -parallel 1.
//
// Usage:
//
//	evolve-bench [-seed N] [-out DIR] [-only table1,figure3,...]
//	             [-parallel N] [-json] [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"evolve/internal/harness"
)

// renderable is the surface Table and Figure share.
type renderable interface {
	Render(w io.Writer) error
	RenderCSV(w io.Writer) error
}

// item is one table or figure of the evaluation.
type item struct {
	id   string
	kind string // "table" | "figure"
	run  func(r *harness.Runner, seed int64) (renderable, error)
}

// benchOpts carries the flags that shape individual items.
type benchOpts struct {
	shards      int  // shard counts to sweep in figure6: 0 = {1,4,8}, N = {1,N}
	quick       bool // reduced figure6 and figure12 ladders (the CI scale)
	scalePoints int  // truncate the figure6 ladder to its first N points (0 = all)

	// scaleRows collects figure6's raw per-run rows for the -json
	// summary and BENCH_7.json; ctrlRows the same for figure12.
	scaleRows []harness.ScaleRow
	ctrlRows  []harness.CtrlScaleRow
}

// scaleConfig resolves the figure6 sweep from the flags.
func (o *benchOpts) scaleConfig(seed int64) harness.ScaleConfig {
	cfg := harness.DefaultScaleConfig(seed, o.quick)
	if o.shards > 0 {
		cfg.Shards = []int{1, o.shards}
	}
	if o.scalePoints > 0 && o.scalePoints < len(cfg.Points) {
		cfg.Points = cfg.Points[:o.scalePoints]
	}
	return cfg
}

// ctrlScaleConfig resolves the figure12 sweep from the flags.
func (o *benchOpts) ctrlScaleConfig(seed int64) harness.CtrlScaleConfig {
	cfg := harness.DefaultCtrlScaleConfig(seed, o.quick)
	if o.scalePoints > 0 && o.scalePoints < len(cfg.Points) {
		cfg.Points = cfg.Points[:o.scalePoints]
	}
	return cfg
}

func items(opts *benchOpts) []item {
	tbl := func(id string, f func(r *harness.Runner, seed int64) (*harness.Table, error)) item {
		return item{id, "table", func(r *harness.Runner, seed int64) (renderable, error) { return f(r, seed) }}
	}
	fig := func(id string, f func(r *harness.Runner, seed int64) (*harness.Figure, error)) item {
		return item{id, "figure", func(r *harness.Runner, seed int64) (renderable, error) { return f(r, seed) }}
	}
	return []item{
		tbl("table1", func(r *harness.Runner, seed int64) (*harness.Table, error) {
			t, _, err := harness.Table1(r, seed)
			return t, err
		}),
		tbl("table2", harness.Table2),
		tbl("table3", harness.Table3),
		tbl("table4", func(*harness.Runner, int64) (*harness.Table, error) { return harness.Table4(), nil }),
		tbl("table5", harness.Table5),
		tbl("table6", harness.Table6),
		tbl("table7", harness.Table7),
		tbl("table8", harness.Table8),
		fig("figure1", harness.Figure1),
		fig("figure2", harness.Figure2),
		fig("figure3", func(r *harness.Runner, seed int64) (*harness.Figure, error) {
			f, _, err := harness.Figure3(r, seed)
			return f, err
		}),
		fig("figure4", func(_ *harness.Runner, seed int64) (*harness.Figure, error) { return harness.Figure4(seed) }),
		fig("figure5", harness.Figure5),
		fig("figure6", func(_ *harness.Runner, seed int64) (*harness.Figure, error) {
			f, rows, err := harness.Figure6(opts.scaleConfig(seed))
			opts.scaleRows = rows
			return f, err
		}),
		fig("figure7", harness.Figure7),
		fig("figure8", harness.Figure8),
		fig("figure9", harness.Figure9),
		fig("figure10", harness.Figure10),
		fig("figure11", harness.Figure11),
		fig("figure12", func(_ *harness.Runner, seed int64) (*harness.Figure, error) {
			f, rows, err := harness.Figure12(opts.ctrlScaleConfig(seed))
			opts.ctrlRows = rows
			return f, err
		}),
	}
}

// report is the machine-readable record of one generated item (-json).
type report struct {
	ID       string             `json:"id"`
	Kind     string             `json:"kind"`
	WallMS   float64            `json:"wall_ms"`
	Rows     int                `json:"rows,omitempty"`
	Points   int                `json:"points,omitempty"`
	Headline map[string]float64 `json:"headline,omitempty"`
}

// summary closes a -json stream: total wall-clock plus runner counters,
// the bench trajectory future PRs compare against.
type summary struct {
	ID          string  `json:"id"`
	TotalWallMS float64 `json:"total_wall_ms"`
	Workers     int     `json:"workers"`
	Runs        uint64  `json:"runs"`
	CacheHits   uint64  `json:"cache_hits"`
	Uncacheable uint64  `json:"uncacheable"`
	// Shards echoes the -shards flag (0 = default {1,4,8} sweep); Scale
	// holds figure6's raw rows — wall-clock, ns/op and the per-phase
	// breakdown per (topology, shard count) run — when figure6 was
	// selected.
	Shards int                `json:"shards"`
	Scale  []harness.ScaleRow `json:"scale,omitempty"`
	// CtrlScale holds figure12's raw rows — ms per control period split
	// into eval/apply per fleet size — when figure12 was selected.
	CtrlScale []harness.CtrlScaleRow `json:"ctrl_scale,omitempty"`
	// EffectiveWorkers is the largest resolved shard parallelism across
	// the scale rows — what ShardWorkers=0 actually ran with on this
	// machine (min(shards, GOMAXPROCS)).
	EffectiveWorkers int `json:"effective_workers,omitempty"`
}

func main() {
	seed := flag.Int64("seed", 42, "scenario seed (every run is deterministic in it)")
	out := flag.String("out", "", "directory for CSV dumps (omit to skip)")
	only := flag.String("only", "", "comma-separated subset, e.g. table1,figure3")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max simultaneous simulations (results are identical at any value)")
	jsonOut := flag.Bool("json", false, "emit JSON lines (one per item + summary) instead of ASCII rendering")
	traceDir := flag.String("trace-dir", "", "directory for per-run decision traces (<scenario>__<policy>.jsonl; omit to skip)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	shards := flag.Int("shards", 0, "figure6: sweep shard counts {1,N} instead of the default {1,4,8}")
	quick := flag.Bool("quick", false, "figure6, figure12: reduced ladders (the CI scale)")
	scalePoints := flag.Int("scale-points", 0, "figure6: truncate the ladder to its first N points (0 = full ladder)")
	flag.Parse()

	opts := &benchOpts{shards: *shards, quick: *quick, scalePoints: *scalePoints}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	all := items(opts)
	known := make(map[string]bool, len(all))
	for _, it := range all {
		known[it.id] = true
	}
	want := map[string]bool{}
	if *only != "" {
		var unknown []string
		for _, f := range strings.Split(*only, ",") {
			id := strings.ToLower(strings.TrimSpace(f))
			if id == "" {
				continue
			}
			if !known[id] {
				unknown = append(unknown, id)
				continue
			}
			want[id] = true
		}
		if len(unknown) > 0 {
			valid := make([]string, 0, len(known))
			for id := range known {
				valid = append(valid, id)
			}
			sort.Strings(valid)
			fmt.Fprintf(os.Stderr, "evolve-bench: unknown -only id(s): %s\nvalid ids: %s\n",
				strings.Join(unknown, ", "), strings.Join(valid, ", "))
			os.Exit(2)
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}

	runner := harness.NewRunner(*parallel)
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err)
		}
		runner.SetTraceDir(*traceDir)
	}
	enc := json.NewEncoder(os.Stdout)
	start := time.Now()
	for _, it := range all {
		if !selected(it.id) {
			continue
		}
		itemStart := time.Now()
		res, err := it.run(runner, *seed)
		if err != nil {
			fatal(err)
		}
		wall := time.Since(itemStart)
		if *jsonOut {
			if err := enc.Encode(describe(it, res, wall)); err != nil {
				fatal(err)
			}
		} else {
			if err := res.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		dumpCSV(*out, it.id, res.RenderCSV)
	}
	st := runner.Stats()
	if *jsonOut {
		effWorkers := 0
		for _, row := range opts.scaleRows {
			if row.EffectiveWorkers > effWorkers {
				effWorkers = row.EffectiveWorkers
			}
		}
		if err := enc.Encode(summary{
			ID:               "summary",
			TotalWallMS:      float64(time.Since(start).Microseconds()) / 1000,
			Workers:          runner.Workers(),
			Runs:             st.Runs,
			CacheHits:        st.CacheHits,
			Uncacheable:      st.Uncacheable,
			Shards:           *shards,
			Scale:            opts.scaleRows,
			CtrlScale:        opts.ctrlRows,
			EffectiveWorkers: effWorkers,
		}); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "evolve-bench: done in %v (%d simulations, %d cache hits, %d workers)\n",
		time.Since(start).Round(time.Millisecond), st.Runs, st.CacheHits, runner.Workers())
}

// describe extracts the headline numbers of one rendered item: row count
// for tables, per-column series means for figures.
func describe(it item, res renderable, wall time.Duration) report {
	rep := report{ID: it.id, Kind: it.kind, WallMS: float64(wall.Microseconds()) / 1000}
	switch v := res.(type) {
	case *harness.Table:
		rep.Rows = len(v.Rows)
	case *harness.Figure:
		rep.Points = len(v.X)
		rep.Headline = make(map[string]float64, len(v.Columns))
		for i, col := range v.Columns {
			if i >= len(v.Series) || len(v.Series[i]) == 0 {
				continue
			}
			sum := 0.0
			for _, y := range v.Series[i] {
				sum += y
			}
			rep.Headline["mean:"+col] = sum / float64(len(v.Series[i]))
		}
	}
	return rep
}

func dumpCSV(dir, id string, render func(w io.Writer) error) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, id+".csv")
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := render(f); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "evolve-bench: wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evolve-bench:", err)
	os.Exit(1)
}
