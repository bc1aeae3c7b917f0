package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"evolve"
	"evolve/internal/baseline"
	"evolve/internal/batch"
	"evolve/internal/cluster"
	"evolve/internal/control"
	"evolve/internal/core"
	"evolve/internal/hpc"
	"evolve/internal/perf"
	"evolve/internal/resource"
	"evolve/internal/sim"
	"evolve/internal/workload"
)

// The mirror world rebuilds a facade world from the exported
// constructors of the internal packages — sim.NewEngine, cluster.New,
// batch.NewRunner, control.NewLoop, the policy factory and
// hpc.NewQueue — in the order evolve.New, AddService and Run call them,
// so the traced run can hook layers the facade keeps private: a timed
// control.Plant around the cluster, a timed control.Controller around
// every policy instance, and the cluster's and loop's own wall-clock
// counters. It is checked, not trusted: its report must equal the
// facade run's byte for byte. It covers only what the mirrored worlds
// use, and goes away once one world constructor serves the facade and the
// benchmark alike.

// nodeShape, controlInterval and the policy table restate evolve.New's
// defaults, for the policies the mirrored worlds use.
const nodeShape = "cpu=16 memory=64Gi diskio=1G netio=2G"

const controlInterval = 15 * time.Second

func mirrorPolicy(name string) (control.Factory, error) {
	switch strings.ToLower(name) {
	case "", "evolve":
		return core.Factory(core.DefaultConfig()), nil
	case "static":
		return baseline.StaticFactory(), nil
	}
	return nil, fmt.Errorf("mirror: policy %q is not mirrored", name)
}

var mirrorArchetypes = map[string]workload.Archetype{
	"": workload.Web, "web": workload.Web, "gateway": workload.Gateway,
	"kvstore": workload.KVStore, "inference": workload.Inference,
}

// callTimer accumulates the calls into one function and their wall time.
type callTimer struct {
	calls uint64
	ns    int64
}

func (t *callTimer) since(t0 time.Time) {
	t.calls++
	t.ns += time.Since(t0).Nanoseconds()
}

// meanUS is the mean wall microseconds per call.
func (t *callTimer) meanUS() float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.calls) / 1e3
}

// timedPlant is the cluster as the control loop's plant, timing Observe
// and ApplyDecision. Embedding the cluster forwards every other method,
// so the optional interfaces the loop type-asserts on its plant
// (control.Recorder, control.BatchActuator) stay implemented and the
// loop takes the same code path as with the bare cluster.
type timedPlant struct {
	*cluster.Cluster
	observe, actuate callTimer
}

func (p *timedPlant) Observe(app string) (control.Observation, error) {
	t0 := time.Now()
	o, err := p.Cluster.Observe(app)
	p.observe.since(t0)
	return o, err
}

func (p *timedPlant) ApplyDecision(app string, d control.Decision) error {
	t0 := time.Now()
	err := p.Cluster.ApplyDecision(app, d)
	p.actuate.since(t0)
	return err
}

// timedController times one policy instance's Decide.
type timedController struct {
	inner control.Controller
	t     *callTimer
}

func (c *timedController) Name() string { return c.inner.Name() }

func (c *timedController) Decide(o control.Observation) control.Decision {
	t0 := time.Now()
	d := c.inner.Decide(o)
	c.t.since(t0)
	return d
}

// timeController wraps inner so that t times its Decide. The result
// implements exactly the optional interfaces inner implements among
// those the loop type-asserts on controllers — control.Explainer,
// control.Traceable and control.StateSaver — because a wrapper that
// dropped one would silently move the run onto another code path.
func timeController(inner control.Controller, t *callTimer) control.Controller {
	tc := &timedController{inner: inner, t: t}
	ex, isEx := inner.(control.Explainer)
	tr, isTr := inner.(control.Traceable)
	ss, isSS := inner.(control.StateSaver)
	type (
		E  = control.Explainer
		T  = control.Traceable
		S  = control.StateSaver
		TC = *timedController
	)
	switch {
	case isEx && isTr && isSS:
		return struct {
			TC
			E
			T
			S
		}{tc, ex, tr, ss}
	case isEx && isTr:
		return struct {
			TC
			E
			T
		}{tc, ex, tr}
	case isEx && isSS:
		return struct {
			TC
			E
			S
		}{tc, ex, ss}
	case isTr && isSS:
		return struct {
			TC
			T
			S
		}{tc, tr, ss}
	case isEx:
		return struct {
			TC
			E
		}{tc, ex}
	case isTr:
		return struct {
			TC
			T
		}{tc, tr}
	case isSS:
		return struct {
			TC
			S
		}{tc, ss}
	}
	return tc
}

// mirrorWorld is a world built from the internal constructors with the
// layer hooks installed.
type mirrorWorld struct {
	eng    *sim.Engine
	c      *cluster.Cluster
	loop   *control.Loop
	queue  *hpc.Queue
	plant  *timedPlant
	decide callTimer
	phases *perf.PhaseBreakdown
	ctrl   *control.CtrlTiming
	runErr error
}

// buildMirror builds w the way evolve.New and AddService would. It
// refuses worlds using facade features it does not rebuild.
func buildMirror(w *world) (*mirrorWorld, error) {
	o := w.opts
	if w.traced || w.ckptEvery > 0 || len(w.batch) > 0 || len(w.hpc) > 0 ||
		o.Chaos != "" || len(o.Pools) > 0 || o.NodeShape != "" || o.ControlInterval != 0 ||
		o.Overprovision != 0 || o.MeasurementNoise != 0 || o.HPCQueue != "" ||
		o.ScoreWorkers != 0 || o.Shards != 0 || o.ShardWorkers != 0 || o.CtrlWorkers != 0 {
		return nil, fmt.Errorf("mirror: world %s uses facade features the mirror does not rebuild", w.name)
	}
	if o.Seed == 0 || o.Nodes <= 0 {
		return nil, fmt.Errorf("mirror: world %s must set Seed and Nodes", w.name)
	}
	shape, err := resource.ParseVector(nodeShape)
	if err != nil {
		return nil, err
	}
	factory, err := mirrorPolicy(o.Policy)
	if err != nil {
		return nil, err
	}
	m := &mirrorWorld{eng: sim.NewEngine(o.Seed)}
	m.c = cluster.New(m.eng, cluster.DefaultConfig())
	if err := m.c.AddNodes("node", o.Nodes, shape); err != nil {
		return nil, err
	}
	batch.NewRunner(m.c)
	m.plant = &timedPlant{Cluster: m.c}
	m.loop = control.NewLoop(m.eng, m.plant, control.LoopConfig{Interval: controlInterval, Seed: o.Seed})
	m.loop.OnFatal(func(err error) {
		if m.runErr == nil {
			m.runErr = fmt.Errorf("evolve: %w", err)
		}
	})
	m.queue = hpc.NewQueue(m.c, hpc.Backfill)
	for _, s := range w.services {
		so := s.opts
		if so.LatencyObjective != 0 || so.ThroughputObjective != 0 || so.Pool != "" || so.StartupDelay != 0 {
			return nil, fmt.Errorf("mirror: service %s uses options the mirror does not rebuild", so.Name)
		}
		arch, ok := mirrorArchetypes[strings.ToLower(so.Archetype)]
		if !ok {
			return nil, fmt.Errorf("mirror: unknown archetype %q", so.Archetype)
		}
		replicas := so.Replicas
		if replicas <= 0 {
			replicas = 2
		}
		if err := m.c.CreateService(workload.Service(arch, so.Name, so.BaseRate, replicas)); err != nil {
			return nil, err
		}
		m.loop.Add(so.Name, timeController(factory(so.Name), &m.decide))
		if err := m.c.SetLoadFunc(so.Name, s.load); err != nil {
			return nil, err
		}
	}
	m.phases = m.c.EnablePhaseTiming()
	m.ctrl = m.loop.EnableTiming()
	return m, nil
}

// run advances the mirror by d, arming the tick and the loop on the
// first call as the facade's Run does.
func (m *mirrorWorld) run(d time.Duration) error {
	m.c.Start()
	m.loop.Start()
	m.c.Run(m.eng.Now() + d)
	return m.runErr
}

// report restates evolve.Cluster.Report for an untraced world.
func (m *mirrorWorld) report() evolve.Report {
	met := m.c.Metrics()
	now := m.eng.Now()
	r := evolve.Report{Elapsed: now}
	names := m.c.Apps()
	sort.Strings(names)
	for _, name := range names {
		tr, err := m.c.Tracker(name)
		if err != nil {
			continue
		}
		app, err := m.c.App(name)
		if err != nil {
			continue
		}
		r.Services = append(r.Services, evolve.ServiceReport{
			Name:              name,
			Objective:         tr.PLO().String(),
			ViolationFraction: tr.ViolationFraction(),
			MeanSLI:           met.Series("app/" + name + "/sli").AllStats().Mean,
			Replicas:          app.DesiredReplicas,
			AllocPerReplica:   app.Alloc.String(),
			BurnRate:          tr.Burn().BurnRate(),
		})
	}
	r.ClusterCPUAllocated = met.Series("cluster/allocated/cpu").TimeWeightedMean(0, now)
	r.ClusterCPUUsed = met.Series("cluster/usage/cpu").TimeWeightedMean(0, now)
	r.BatchJobsCompleted = met.Counter("batch/jobs-completed").Value()
	r.HPCJobsCompleted = met.Counter("hpc/jobs-completed").Value()
	r.HPCMeanWait, _, _ = m.queue.Stats()
	r.Preemptions = met.Counter("sched/preemptions").Value()
	ls := m.loop.Stats()
	r.DegradedPeriods = ls.DegradedPeriods
	r.ActuationRetries = ls.Retries
	r.Abandoned = ls.Abandoned
	return r
}
