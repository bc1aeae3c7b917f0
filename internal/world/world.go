// Package world builds a converged simulated world — engine, cluster,
// batch runner, control loop and HPC queue — in one fixed order, for
// the public facade and the evaluation harness alike. It also holds the
// one policy-name registry both resolve names through.
//
// The arming order is part of the replay contract: events that share a
// timestamp fire in the order they were scheduled, so every world that
// is built here schedules its timers in the same sequence.
package world

import (
	"fmt"
	"strings"
	"time"

	"evolve/internal/baseline"
	"evolve/internal/batch"
	"evolve/internal/chaos"
	"evolve/internal/cluster"
	"evolve/internal/control"
	"evolve/internal/core"
	"evolve/internal/hpc"
	"evolve/internal/obs"
	"evolve/internal/resource"
	"evolve/internal/sched"
	"evolve/internal/sim"
)

// DefaultNodeShape is the node capacity used when Config.NodeShape is
// zero: 16 cores, 64 GiB, 1 GB/s disk, 2 GB/s network.
func DefaultNodeShape() resource.Vector { return resource.New(16000, 64<<30, 1e9, 2e9) }

// Pool declares a labeled group of identical nodes, named <Name>-<i>.
type Pool struct {
	Name   string
	Count  int
	Labels map[string]string
}

// Config describes a world.
type Config struct {
	Seed int64
	// Nodes is the flat topology's size, ignored when Pools is set.
	Nodes int
	// NodeShape is every node's capacity; zero means DefaultNodeShape.
	NodeShape resource.Vector
	Pools     []Pool
	// ControlInterval is the control period; zero means
	// control.DefaultInterval.
	ControlInterval time.Duration
	SchedulerPolicy sched.Policy
	// MeasurementNoise overrides the cluster default when > 0.
	MeasurementNoise float64
	Shards           int
	ShardWorkers     int
	// Chaos is a chaos.Parse plan; empty means fault-free. The injector
	// is seeded from Seed.
	Chaos     string
	HPCPolicy hpc.Policy
	// History is the telemetry retention window (cluster
	// Config.MetricsHistory); zero keeps every sample.
	History time.Duration
	// Tracer, when non-nil, is installed on the cluster before any node
	// exists, so the trace records every registry object as it is
	// created. Nil leaves tracing to the caller.
	Tracer *obs.Tracer
}

// World is one built world. Its parts are exported for the callers that
// drive them; the world itself only owns the sticky failure.
type World struct {
	Engine  *sim.Engine
	Cluster *cluster.Cluster
	Runner  *batch.Runner
	Loop    *control.Loop
	Queue   *hpc.Queue

	err error
}

// New builds the world in its fixed order: engine; cluster; nodes or
// pools; chaos (parse, then arm); batch runner; control loop; HPC queue.
// The control loop's fatal errors fail the world. Nothing is started:
// callers add their workload, then Start the cluster and the loop.
func New(cfg Config) (*World, error) {
	shape := cfg.NodeShape
	if shape.IsZero() {
		shape = DefaultNodeShape()
	}
	eng := sim.NewEngine(cfg.Seed)
	ccfg := cluster.DefaultConfig()
	ccfg.SchedulerPolicy = cfg.SchedulerPolicy
	if cfg.MeasurementNoise > 0 {
		ccfg.MeasurementNoise = cfg.MeasurementNoise
	}
	ccfg.Shards = cfg.Shards
	ccfg.ShardWorkers = cfg.ShardWorkers
	ccfg.MetricsHistory = cfg.History
	c := cluster.New(eng, ccfg)
	if cfg.Tracer != nil {
		c.SetTracer(cfg.Tracer)
	}
	if len(cfg.Pools) > 0 {
		for _, pool := range cfg.Pools {
			if pool.Name == "" || pool.Count <= 0 {
				return nil, fmt.Errorf("invalid pool %q of %d nodes", pool.Name, pool.Count)
			}
			for i := 0; i < pool.Count; i++ {
				if err := c.AddLabeledNode(fmt.Sprintf("%s-%d", pool.Name, i), shape, pool.Labels); err != nil {
					return nil, err
				}
			}
		}
	} else if err := c.AddNodes("node", cfg.Nodes, shape); err != nil {
		return nil, err
	}
	if cfg.Chaos != "" {
		plan, err := chaos.Parse(cfg.Chaos)
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		inj := chaos.NewInjector(plan, cfg.Seed)
		c.SetChaos(inj)
		inj.Arm(eng, c)
	}
	w := &World{Engine: eng, Cluster: c, Runner: batch.NewRunner(c)}
	w.Loop = control.NewLoop(eng, c, control.LoopConfig{Interval: cfg.ControlInterval, Seed: cfg.Seed})
	w.Loop.SetTracer(c.Tracer())
	w.Loop.OnFatal(w.Fail)
	w.Queue = hpc.NewQueue(c, cfg.HPCPolicy)
	return w, nil
}

// Fail records err as the world's failure and stops the engine, so the
// clock stays at the failing instant. Only the first failure is kept.
func (w *World) Fail(err error) {
	if w.err == nil {
		w.err = err
		w.Engine.Stop()
	}
}

// Err returns the first failure, or nil.
func (w *World) Err() error { return w.err }

// policies is the policy-name registry, in the order names are listed.
var policies = []struct {
	name    string
	factory func() control.Factory
}{
	{"evolve", func() control.Factory { return core.Factory(core.DefaultConfig()) }},
	{"hpa", func() control.Factory { return baseline.HPAFactory(baseline.DefaultHPAConfig()) }},
	{"vpa", func() control.Factory { return baseline.VPAFactory(baseline.DefaultVPAConfig()) }},
	{"static", baseline.StaticFactory},
	{"pid-cpu-only", core.SingleResourceFactory},
}

// PolicyNames lists the canonical policy names.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.name
	}
	return names
}

// Policy resolves a policy name, in any case, to its canonical name and
// controller factory. The empty name means "evolve".
func Policy(name string) (string, control.Factory, error) {
	key := strings.ToLower(name)
	if key == "" {
		key = "evolve"
	}
	for _, p := range policies {
		if p.name == key {
			return p.name, p.factory(), nil
		}
	}
	return "", nil, fmt.Errorf("unknown policy %q (want %s)", name, strings.Join(PolicyNames(), ", "))
}
