package harness

import (
	"fmt"
	"time"

	"evolve/internal/cluster"
	"evolve/internal/perf"
	"evolve/internal/plo"
	"evolve/internal/resource"
	"evolve/internal/sim"
	"evolve/internal/world"
)

// Figure 6 — simulation-kernel scalability. The old control-plane
// latency sweep moved into Table 4; Figure 6 now answers the question
// the sharded kernel exists for: how fast does one telemetry tick run
// as the substrate grows to 100k nodes / 1M pods, and what does
// sharding buy at each scale? Topologies are stood up with
// cluster.ProvisionBulk (replicas come up bound and serving, so the
// sweep measures the kernel, not setup), then driven for a fixed
// number of metric ticks per (point, shard count) with the wall clock
// around Run only.

// ScalePoint is one topology size of the sweep.
type ScalePoint struct {
	Nodes int
	Pods  int
}

// ScaleRow is the measured outcome of one (point, shard count) run —
// the record evolve-bench embeds in BENCH_7.json.
type ScaleRow struct {
	Nodes   int `json:"nodes"`
	Pods    int `json:"pods"`
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	// EffectiveWorkers is the fan-out's actual worker count after the
	// Workers<=0 default resolves to min(shards, GOMAXPROCS).
	EffectiveWorkers int `json:"effective_workers"`
	Ticks            int `json:"ticks"`
	// Reps is how many timed repetitions ran after the warmup tick;
	// WallMS is the fastest rep (min wall de-noises shard comparisons).
	Reps   int     `json:"reps"`
	WallMS float64 `json:"wall_ms"`
	// MSPerTick is wall-clock per telemetry tick; NsPerPodTick the same
	// normalised per pod — the kernel's unit cost.
	MSPerTick    float64 `json:"ms_per_tick"`
	NsPerPodTick float64 `json:"ns_per_pod_tick"`
	// Events counts kernel events executed during the fastest rep;
	// ShardEvents counts the phases each shard ran over the whole run.
	Events      uint64   `json:"events"`
	ShardEvents []uint64 `json:"shard_events,omitempty"`
	// Phases is the mean per-tick phase breakdown over the timed reps:
	// where a tick's wall time actually goes.
	Phases []perf.PhaseMS `json:"phases,omitempty"`
	// TickMaxMS is the slowest single kernel tick across all timed reps
	// — the latency tail MSPerTick's mean hides.
	TickMaxMS float64 `json:"tick_max_ms,omitempty"`
	// RoundsPerTick is the mean fan-out rounds per tick over the timed
	// reps: how many barrier crossings one tick costs (3, one per phase).
	RoundsPerTick float64 `json:"rounds_per_tick,omitempty"`
	// Speedup is wall(1 shard)/wall(this row) at the same point; 1.0 for
	// the baseline rows.
	Speedup float64 `json:"speedup"`
}

// ScaleConfig parameterises the Figure 6 sweep.
type ScaleConfig struct {
	Seed   int64
	Shards []int        // shard counts per point; first entry is the baseline
	Points []ScalePoint // topology ladder
	Ticks  int          // metric ticks driven per run
	// Workers bounds same-timestamp shard parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultScalePoints returns the topology ladder: the full Figure 6
// ladder tops out at 100k nodes / 1M pods; quick is the reduced ladder
// CI runs.
func DefaultScalePoints(quick bool) []ScalePoint {
	if quick {
		return []ScalePoint{
			{Nodes: 500, Pods: 5_000},
			{Nodes: 2_000, Pods: 20_000},
			{Nodes: 5_000, Pods: 50_000},
		}
	}
	return []ScalePoint{
		{Nodes: 1_000, Pods: 10_000},
		{Nodes: 5_000, Pods: 50_000},
		{Nodes: 10_000, Pods: 100_000},
		{Nodes: 25_000, Pods: 250_000},
		{Nodes: 50_000, Pods: 500_000},
		{Nodes: 100_000, Pods: 1_000_000},
	}
}

// DefaultScaleConfig is what evolve-bench runs when -shards is not
// given: the ladder under shard counts {1, 4, 8}.
func DefaultScaleConfig(seed int64, quick bool) ScaleConfig {
	return ScaleConfig{
		Seed:   seed,
		Shards: []int{1, 4, 8},
		Points: DefaultScalePoints(quick),
		Ticks:  6,
	}
}

// Figure6 runs the kernel scale sweep and returns both the rendered
// figure (X = pods, one ms/tick column per shard count) and the raw
// per-run rows.
func Figure6(cfg ScaleConfig) (*Figure, []ScaleRow, error) {
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{1, 4, 8}
	}
	if len(cfg.Points) == 0 {
		cfg.Points = DefaultScalePoints(false)
	}
	if cfg.Ticks <= 0 {
		cfg.Ticks = 6
	}
	f := &Figure{
		ID:     "Figure 6",
		Title:  "Simulation-kernel scalability (wall-clock per tick)",
		XLabel: "pods",
	}
	for _, s := range cfg.Shards {
		f.Columns = append(f.Columns, fmt.Sprintf("ms/tick (%d shard)", s))
	}
	rows := make([]ScaleRow, 0, len(cfg.Points)*len(cfg.Shards))
	for _, pt := range cfg.Points {
		ptRows, err := runScalePointSet(cfg, pt)
		if err != nil {
			return nil, nil, err
		}
		ys := make([]float64, 0, len(cfg.Shards))
		baseWall := ptRows[0].WallMS
		for i := range ptRows {
			if ptRows[i].WallMS > 0 {
				ptRows[i].Speedup = baseWall / ptRows[i].WallMS
			}
			rows = append(rows, ptRows[i])
			ys = append(ys, ptRows[i].MSPerTick)
		}
		if err := f.AddPoint(float64(pt.Pods), ys...); err != nil {
			return nil, nil, err
		}
	}
	f.Notes = append(f.Notes,
		"provisioned via cluster.ProvisionBulk; wall clock is min over timed reps of Run only",
		"absolute values are machine-dependent; shard counts replay byte-identically")
	return f, rows, nil
}

// scaleService builds one service of the sweep topology; requests are
// sized so density pods per node fit a standard node with headroom.
func scaleService(name string, replicas, density int) cluster.ServiceSpec {
	if density < 1 {
		density = 1
	}
	node := world.DefaultNodeShape().Scale(0.94)
	req := resource.New(500, 1<<30, 1e6, 1e6)
	for _, k := range resource.Kinds() {
		if cap := node[k] / float64(density) * 0.9; req[k] > cap {
			req[k] = cap
		}
	}
	return cluster.ServiceSpec{
		Name: name,
		Model: perf.ServiceModel{
			BaseLatency:      2 * time.Millisecond,
			DemandPerOp:      resource.New(10, 0, 20e3, 50e3),
			MemFixed:         256 << 20,
			MemPerConcurrent: 4 << 20,
			MaxLatency:       30 * time.Second,
		},
		PLO:             plo.Latency(100 * time.Millisecond),
		InitialReplicas: replicas,
		InitialAlloc:    req,
		MaxReplicas:     replicas + 1,
		Priority:        100,
	}
}

// scaleServices splits the pod budget across a service fleet that grows
// with it (one service per ~2k pods, between 4 and 512 services).
func scaleServices(pods, density int) []cluster.ServiceSpec {
	apps := pods / 2048
	if apps < 4 {
		apps = 4
	}
	if apps > 512 {
		apps = 512
	}
	if apps > pods {
		apps = pods
	}
	per := pods / apps
	rem := pods - per*apps
	specs := make([]cluster.ServiceSpec, apps)
	for i := range specs {
		n := per
		if i < rem {
			n++
		}
		specs[i] = scaleService(fmt.Sprintf("svc-%03d", i), n, density)
	}
	return specs
}

// scaleReps is how many timed repetitions each scale row runs after the
// warmup tick; the fastest rep is reported. One warmup tick populates
// the dense caches and the allocator's steady state, and min-of-5
// de-noises the 8-vs-4-shard comparison on shared CI machines — the
// small-ladder sharded rows finish in ~10 ms per rep, short enough
// that a single scheduler hiccup would otherwise move the min.
const scaleReps = 5

// scaleRun is one provisioned (point, shard count) cluster mid-sweep:
// warm, phase-timed, accumulating its fastest rep.
type scaleRun struct {
	shards  int
	c       *cluster.Cluster
	interva time.Duration
	horizon time.Duration
	pb      *perf.PhaseBreakdown
	wall    time.Duration
	events  uint64
	reps    int
	rounds0 uint64 // fan-out rounds after warmup, for rounds/tick
}

// newScaleRun stands up one topology under the given shard count and
// runs the untimed warmup tick (caches, free lists, branch predictors).
func newScaleRun(seed int64, pt ScalePoint, shards, workers int) (*scaleRun, error) {
	ccfg := cluster.DefaultConfig()
	ccfg.Shards = shards
	ccfg.ShardWorkers = workers
	density := (pt.Pods + pt.Nodes - 1) / pt.Nodes
	c, err := provisionScale(seed, ccfg, pt.Nodes, scaleServices(pt.Pods, density))
	if err != nil {
		return nil, fmt.Errorf("harness: scale point %d/%d: %w", pt.Nodes, pt.Pods, err)
	}
	run := &scaleRun{shards: shards, c: c, interva: ccfg.MetricsInterval}
	run.horizon = run.interva
	c.Run(run.horizon)
	run.pb = c.EnablePhaseTiming()
	run.rounds0 = c.KernelState().Rounds
	return run, nil
}

// provisionScale stands up a scale-ladder cluster: the services are
// bulk-placed on default-shape nodes (every replica must fit), each
// serves a constant 20 ops/s per replica, and the tick is started. The
// ladders do not build through world.New: they need no control loop or
// HPC queue, and the queue's dispatch timer would add events to the
// Figure 6 rows.
func provisionScale(seed int64, ccfg cluster.Config, nodes int, specs []cluster.ServiceSpec) (*cluster.Cluster, error) {
	c := cluster.New(sim.NewEngine(seed), ccfg)
	err := c.ProvisionBulk(cluster.Provision{
		NodePrefix:   "node",
		Nodes:        nodes,
		NodeCapacity: world.DefaultNodeShape(),
		Services:     specs,
	})
	if err != nil {
		return nil, err
	}
	if unplaced := c.Metrics().CounterValue("provision/unplaced"); unplaced > 0 {
		return nil, fmt.Errorf("%d replicas did not fit", unplaced)
	}
	for _, spec := range specs {
		lambda := 20 * float64(spec.InitialReplicas)
		if err := c.SetLoadFunc(spec.Name, func(time.Duration) float64 { return lambda }); err != nil {
			return nil, err
		}
	}
	c.Start()
	return c, nil
}

// rep drives ticks metric ticks and keeps the fastest rep's wall time.
func (sr *scaleRun) rep(ticks int) {
	sr.horizon += time.Duration(ticks) * sr.interva
	start := time.Now()
	ev := sr.c.Run(sr.horizon)
	w := time.Since(start)
	if sr.reps == 0 || w < sr.wall {
		sr.wall, sr.events = w, ev
	}
	sr.reps++
}

// row freezes the run into its BENCH record row.
func (sr *scaleRun) row(pt ScalePoint, workers, ticks int) ScaleRow {
	row := ScaleRow{
		Nodes: pt.Nodes, Pods: pt.Pods, Shards: sr.shards, Workers: workers,
		Ticks: ticks, Reps: sr.reps,
		WallMS:    float64(sr.wall.Microseconds()) / 1000,
		MSPerTick: float64(sr.wall.Microseconds()) / 1000 / float64(ticks),
		Events:    sr.events,
	}
	if pt.Pods > 0 && ticks > 0 {
		row.NsPerPodTick = float64(sr.wall.Nanoseconds()) / float64(ticks) / float64(pt.Pods)
	}
	row.ShardEvents = sr.c.ShardRuns(nil)
	row.EffectiveWorkers = sr.c.EffectiveWorkers()
	row.Phases = sr.pb.PerTickMS()
	row.TickMaxMS = float64(sr.pb.TickMaxNs) / 1e6
	if total := sr.reps * ticks; total > 0 {
		row.RoundsPerTick = float64(sr.c.KernelState().Rounds-sr.rounds0) / float64(total)
	}
	return row
}

// runScalePointSet measures every shard count of one topology point with
// the timed reps interleaved across shard counts (rep 0 of each run,
// then rep 1 of each, ...). The rows of one point exist to be compared
// against each other — speedup columns, the 8-vs-4 regression gate —
// and running each row's reps back-to-back lets a transient noise
// window on a shared machine land entirely inside one row, skewing
// exactly that comparison. Interleaving spreads any window across all
// shard counts; min-of-reps then discards it everywhere equally. All
// clusters of the point stay provisioned until its rows freeze, which
// peaks at shard-count × topology resident — fine even at the 1M-pod
// top of the ladder.
func runScalePointSet(cfg ScaleConfig, pt ScalePoint) ([]ScaleRow, error) {
	runs := make([]*scaleRun, len(cfg.Shards))
	for i, shards := range cfg.Shards {
		run, err := newScaleRun(cfg.Seed, pt, shards, cfg.Workers)
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	for rep := 0; rep < scaleReps; rep++ {
		for _, run := range runs {
			run.rep(cfg.Ticks)
		}
	}
	rows := make([]ScaleRow, len(runs))
	for i, run := range runs {
		rows[i] = run.row(pt, cfg.Workers, cfg.Ticks)
		runs[i] = nil // release the topology before the next point provisions
	}
	return rows, nil
}
