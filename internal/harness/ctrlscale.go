package harness

import (
	"fmt"
	"time"

	"evolve/internal/cluster"
	"evolve/internal/control"
	"evolve/internal/core"
	"evolve/internal/sim"
)

// Figure 12 — control-plane scalability. Figure 6 made the telemetry
// tick scale; this sweep asks the follow-up question: how fast does one
// control period run — per-app observe → PID/feedforward eval → decide
// → actuate plus the backlog drain — as the service fleet grows, and
// what does sharding the control plane (control.LoopConfig.Workers +
// cluster.Config.DrainWorkers) buy at each size? The timer is the
// loop's own CtrlTiming, so the metric isolates the control step from
// the surrounding ticks; runs are byte-identical at every worker
// count, which is what licenses comparing their wall clocks at all.

// CtrlScalePoint is one fleet size of the control-plane sweep.
type CtrlScalePoint struct {
	Apps       int
	PodsPerApp int
	Nodes      int
}

// CtrlScaleRow is the measured outcome of one (point, worker count)
// run — the record evolve-bench embeds in BENCH_10.json.
type CtrlScaleRow struct {
	Apps    int `json:"apps"`
	Pods    int `json:"pods"`
	Nodes   int `json:"nodes"`
	Workers int `json:"ctrl_workers"`
	// Periods is how many control periods each timed rep drove; Reps how
	// many repetitions ran after the warmup period.
	Periods int `json:"periods"`
	Reps    int `json:"reps"`
	// MSPerPeriod is the fastest rep's wall milliseconds per control
	// period (min-of-reps de-noises the comparison); EvalMS/ApplyMS
	// split that rep into the evaluate phase (inline at 1 worker, fanned
	// out otherwise) and the serial apply walk.
	MSPerPeriod float64 `json:"ms_per_period"`
	EvalMS      float64 `json:"eval_ms"`
	ApplyMS     float64 `json:"apply_ms"`
	// Speedup is ms/period(1 worker)/ms/period(this row) at the same
	// point; 1.0 for the baseline rows.
	Speedup float64 `json:"speedup"`
}

// CtrlScaleConfig parameterises the Figure 12 sweep.
type CtrlScaleConfig struct {
	Seed    int64
	Workers []int            // worker counts per point; first entry is the baseline
	Points  []CtrlScalePoint // fleet ladder
	Periods int              // control periods driven per timed rep
}

// DefaultCtrlScalePoints returns the fleet ladder; quick is the reduced
// ladder CI runs.
func DefaultCtrlScalePoints(quick bool) []CtrlScalePoint {
	if quick {
		return []CtrlScalePoint{
			{Apps: 64, PodsPerApp: 8, Nodes: 256},
			{Apps: 256, PodsPerApp: 8, Nodes: 1024},
			{Apps: 512, PodsPerApp: 8, Nodes: 2048},
		}
	}
	return []CtrlScalePoint{
		{Apps: 64, PodsPerApp: 8, Nodes: 256},
		{Apps: 128, PodsPerApp: 8, Nodes: 512},
		{Apps: 256, PodsPerApp: 8, Nodes: 1024},
		{Apps: 512, PodsPerApp: 8, Nodes: 2048},
		{Apps: 512, PodsPerApp: 16, Nodes: 4096},
	}
}

// DefaultCtrlScaleConfig is what evolve-bench runs for figure12: the
// ladder under control-plane worker counts {1, 2, 4, 8}.
func DefaultCtrlScaleConfig(seed int64, quick bool) CtrlScaleConfig {
	return CtrlScaleConfig{
		Seed:    seed,
		Workers: []int{1, 2, 4, 8},
		Points:  DefaultCtrlScalePoints(quick),
		Periods: 4,
	}
}

// Figure12 runs the control-plane scale sweep and returns both the
// rendered figure (X = apps, one ms/control-period column per worker
// count) and the raw per-run rows.
// Unlike Figure 6 the rows are not content-address cached: each row is
// seconds of wall clock, and the runner is accepted only for signature
// symmetry with the other sweeps.
func Figure12(_ *Runner, cfg CtrlScaleConfig) (*Figure, []CtrlScaleRow, error) {
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 2, 4, 8}
	}
	if len(cfg.Points) == 0 {
		cfg.Points = DefaultCtrlScalePoints(false)
	}
	if cfg.Periods <= 0 {
		cfg.Periods = 4
	}
	f := &Figure{
		ID:     "Figure 12",
		Title:  "Control-plane scalability (wall-clock per control period)",
		XLabel: "apps",
	}
	for _, w := range cfg.Workers {
		f.Columns = append(f.Columns, fmt.Sprintf("ms/period (%d worker)", w))
	}
	rows := make([]CtrlScaleRow, 0, len(cfg.Points)*len(cfg.Workers))
	for _, pt := range cfg.Points {
		ptRows, err := runCtrlScalePointSet(cfg, pt)
		if err != nil {
			return nil, nil, err
		}
		ys := make([]float64, 0, len(cfg.Workers))
		base := ptRows[0].MSPerPeriod
		for i := range ptRows {
			if ptRows[i].MSPerPeriod > 0 {
				ptRows[i].Speedup = base / ptRows[i].MSPerPeriod
			}
			rows = append(rows, ptRows[i])
			ys = append(ys, ptRows[i].MSPerPeriod)
		}
		if err := f.AddPoint(float64(pt.Apps), ys...); err != nil {
			return nil, nil, err
		}
	}
	f.Notes = append(f.Notes,
		"timed by control.CtrlTiming around the control step only; min over timed reps",
		"absolute values are machine-dependent; worker counts replay byte-identically")
	return f, rows, nil
}

// ctrlScaleRun is one provisioned (point, worker count) world mid-sweep:
// warm, loop-timed, accumulating its fastest rep.
type ctrlScaleRun struct {
	c       *cluster.Cluster
	loop    *control.Loop
	timing  *control.CtrlTiming
	prev    control.CtrlTiming
	horizon time.Duration
	period  time.Duration

	reps    int
	bestMS  float64
	evalMS  float64
	applyMS float64
	runErr  error
}

// newCtrlScaleRun stands up one fleet under the given control-plane
// worker count, arms the EVOLVE controllers, and runs one untimed
// warmup control period.
func newCtrlScaleRun(seed int64, pt CtrlScalePoint, workers int) (*ctrlScaleRun, error) {
	eng := sim.NewEngine(seed)
	ccfg := cluster.DefaultConfig()
	ccfg.DrainWorkers = workers
	c := cluster.New(eng, ccfg)
	pods := pt.Apps * pt.PodsPerApp
	density := (pods + pt.Nodes - 1) / pt.Nodes
	specs := make([]cluster.ServiceSpec, pt.Apps)
	for i := range specs {
		specs[i] = scaleService(fmt.Sprintf("svc-%04d", i), pt.PodsPerApp, density)
	}
	err := c.ProvisionBulk(cluster.Provision{
		NodePrefix:   "node",
		Nodes:        pt.Nodes,
		NodeCapacity: StandardNode(),
		Services:     specs,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: ctrl scale point %d apps: %w", pt.Apps, err)
	}
	if unplaced := c.Metrics().Counter("provision/unplaced").Value(); unplaced > 0 {
		return nil, fmt.Errorf("harness: ctrl scale point %d apps: %d replicas did not fit", pt.Apps, unplaced)
	}
	for _, spec := range specs {
		lambda := 20 * float64(spec.InitialReplicas)
		if err := c.SetLoadFunc(spec.Name, func(time.Duration) float64 { return lambda }); err != nil {
			return nil, err
		}
	}
	c.Start()
	loop := control.NewLoop(eng, c, control.LoopConfig{Seed: seed, Workers: workers})
	factory := core.Factory(core.DefaultConfig())
	for _, spec := range specs {
		loop.Add(spec.Name, factory(spec.Name))
	}
	run := &ctrlScaleRun{c: c, loop: loop, period: 15 * time.Second}
	loop.OnFatal(func(err error) {
		if run.runErr == nil {
			run.runErr = err
			eng.Stop()
		}
	})
	loop.Start()
	// One untimed warmup period populates observation windows, scratch
	// buffers and the allocator's steady state before the timer arms.
	run.horizon = run.period
	c.Run(run.horizon)
	run.timing = loop.EnableTiming()
	run.prev = *run.timing
	return run, run.runErr
}

// rep drives periods control periods and keeps the fastest rep.
func (cr *ctrlScaleRun) rep(periods int) {
	cr.horizon += time.Duration(periods) * cr.period
	cr.c.Run(cr.horizon)
	t := *cr.timing
	dp := t.Periods - cr.prev.Periods
	dEval := t.EvalNs - cr.prev.EvalNs
	dApply := t.ApplyNs - cr.prev.ApplyNs
	cr.prev = t
	if dp == 0 {
		return
	}
	ms := float64(dEval+dApply) / float64(dp) / 1e6
	if cr.reps == 0 || ms < cr.bestMS {
		cr.bestMS = ms
		cr.evalMS = float64(dEval) / float64(dp) / 1e6
		cr.applyMS = float64(dApply) / float64(dp) / 1e6
	}
	cr.reps++
}

// row freezes the run into its BENCH record row.
func (cr *ctrlScaleRun) row(pt CtrlScalePoint, workers, periods int) CtrlScaleRow {
	return CtrlScaleRow{
		Apps: pt.Apps, Pods: pt.Apps * pt.PodsPerApp, Nodes: pt.Nodes,
		Workers: workers, Periods: periods, Reps: cr.reps,
		MSPerPeriod: cr.bestMS, EvalMS: cr.evalMS, ApplyMS: cr.applyMS,
	}
}

// runCtrlScalePointSet measures every worker count of one fleet point
// with the timed reps interleaved across worker counts (rep 0 of each
// run, then rep 1 of each, ...), for the same reason Figure 6
// interleaves shard counts: the rows of one point exist to be compared
// against each other, and interleaving spreads any transient noise
// window across all of them so min-of-reps discards it equally.
func runCtrlScalePointSet(cfg CtrlScaleConfig, pt CtrlScalePoint) ([]CtrlScaleRow, error) {
	runs := make([]*ctrlScaleRun, len(cfg.Workers))
	for i, w := range cfg.Workers {
		run, err := newCtrlScaleRun(cfg.Seed, pt, w)
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	for rep := 0; rep < scaleReps; rep++ {
		for _, run := range runs {
			run.rep(cfg.Periods)
		}
	}
	rows := make([]CtrlScaleRow, len(cfg.Workers))
	for i, run := range runs {
		if run.runErr != nil {
			return nil, fmt.Errorf("harness: ctrl scale point %d apps, %d workers: %w", pt.Apps, cfg.Workers[i], run.runErr)
		}
		rows[i] = run.row(pt, cfg.Workers[i], cfg.Periods)
		runs[i] = nil // release the topology before the next point provisions
	}
	return rows, nil
}
