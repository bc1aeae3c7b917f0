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
// → actuate plus the backlog drain — as the service fleet grows? The
// timer is the loop's own CtrlTiming, so the metric isolates the
// control step from the surrounding ticks.

// CtrlScalePoint is one fleet size of the control-plane sweep.
type CtrlScalePoint struct {
	Apps       int
	PodsPerApp int
	Nodes      int
}

// CtrlScaleRow is the measured outcome of one point — the record
// evolve-bench embeds in its BENCH_*.json summary.
type CtrlScaleRow struct {
	Apps  int `json:"apps"`
	Pods  int `json:"pods"`
	Nodes int `json:"nodes"`
	// Periods is how many control periods each timed rep drove; Reps how
	// many repetitions ran after the warmup period.
	Periods int `json:"periods"`
	Reps    int `json:"reps"`
	// MSPerPeriod is the fastest rep's wall milliseconds per control
	// period (min-of-reps de-noises the comparison); EvalMS/ApplyMS
	// split that rep into the evaluate phase and the apply walk.
	MSPerPeriod float64 `json:"ms_per_period"`
	EvalMS      float64 `json:"eval_ms"`
	ApplyMS     float64 `json:"apply_ms"`
}

// CtrlScaleConfig parameterises the Figure 12 sweep.
type CtrlScaleConfig struct {
	Seed    int64
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

// DefaultCtrlScaleConfig is what evolve-bench runs for figure12.
func DefaultCtrlScaleConfig(seed int64, quick bool) CtrlScaleConfig {
	return CtrlScaleConfig{
		Seed:    seed,
		Points:  DefaultCtrlScalePoints(quick),
		Periods: 4,
	}
}

// Figure12 runs the control-plane scale sweep and returns both the
// rendered figure (X = apps, Y = ms per control period) and the raw
// per-point rows.
// Unlike Figure 6 the rows are not content-address cached: each row is
// seconds of wall clock, and the runner is accepted only for signature
// symmetry with the other sweeps.
func Figure12(_ *Runner, cfg CtrlScaleConfig) (*Figure, []CtrlScaleRow, error) {
	if len(cfg.Points) == 0 {
		cfg.Points = DefaultCtrlScalePoints(false)
	}
	if cfg.Periods <= 0 {
		cfg.Periods = 4
	}
	f := &Figure{
		ID:      "Figure 12",
		Title:   "Control-plane scalability (wall-clock per control period)",
		XLabel:  "apps",
		Columns: []string{"ms/period"},
	}
	rows := make([]CtrlScaleRow, 0, len(cfg.Points))
	for _, pt := range cfg.Points {
		row, err := runCtrlScalePoint(cfg, pt)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		if err := f.AddPoint(float64(pt.Apps), row.MSPerPeriod); err != nil {
			return nil, nil, err
		}
	}
	f.Notes = append(f.Notes,
		"timed by control.CtrlTiming around the control step only; min over timed reps",
		"absolute values are machine-dependent")
	return f, rows, nil
}

// ctrlScaleRun is one provisioned point's world mid-sweep:
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

// newCtrlScaleRun stands up one fleet, arms the EVOLVE controllers,
// and runs one untimed warmup control period.
func newCtrlScaleRun(seed int64, pt CtrlScalePoint) (*ctrlScaleRun, error) {
	eng := sim.NewEngine(seed)
	c := cluster.New(eng, cluster.DefaultConfig())
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
	loop := control.NewLoop(eng, c, control.LoopConfig{Seed: seed})
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

// runCtrlScalePoint provisions one fleet point, drives scaleReps timed
// reps and freezes the fastest into its BENCH record row.
func runCtrlScalePoint(cfg CtrlScaleConfig, pt CtrlScalePoint) (CtrlScaleRow, error) {
	run, err := newCtrlScaleRun(cfg.Seed, pt)
	if err != nil {
		return CtrlScaleRow{}, err
	}
	for rep := 0; rep < scaleReps; rep++ {
		run.rep(cfg.Periods)
	}
	if run.runErr != nil {
		return CtrlScaleRow{}, fmt.Errorf("harness: ctrl scale point %d apps: %w", pt.Apps, run.runErr)
	}
	return CtrlScaleRow{
		Apps: pt.Apps, Pods: pt.Apps * pt.PodsPerApp, Nodes: pt.Nodes,
		Periods: cfg.Periods, Reps: run.reps,
		MSPerPeriod: run.bestMS, EvalMS: run.evalMS, ApplyMS: run.applyMS,
	}, nil
}
