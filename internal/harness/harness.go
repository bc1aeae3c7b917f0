// Package harness wires the full stack together for the evaluation: it
// builds a scenario (cluster topology, service mix, load patterns, batch
// and HPC job streams), runs it once per resource-management policy, and
// summarises the outcomes into the tables and figures of EXPERIMENTS.md.
// Every run is deterministic in the scenario seed.
package harness

import (
	"fmt"
	"time"

	"evolve/internal/batch"
	"evolve/internal/chaos"
	"evolve/internal/cluster"
	"evolve/internal/control"
	"evolve/internal/cost"
	"evolve/internal/hpc"
	"evolve/internal/metrics"
	"evolve/internal/obs"
	"evolve/internal/resource"
	"evolve/internal/sched"
	"evolve/internal/workload"
	"evolve/internal/world"
)

// AppLoad pairs a service spec with its offered-load pattern.
type AppLoad struct {
	Spec    cluster.ServiceSpec
	Pattern workload.Pattern
}

// TimedBatch schedules a DAG job submission at a virtual time.
type TimedBatch struct {
	At  time.Duration
	Job batch.JobSpec
}

// TimedHPC schedules an HPC job submission at a virtual time.
type TimedHPC struct {
	At  time.Duration
	Job hpc.JobSpec
}

// NodePool declares a labeled group of identical nodes.
type NodePool = world.Pool

// Scenario describes one complete experiment environment.
type Scenario struct {
	Name         string
	Seed         int64
	Nodes        int
	NodeCapacity resource.Vector
	// Pools, when set, replaces the flat Nodes topology with labeled
	// pools (Nodes is then ignored except for validation and must equal
	// the pool total).
	Pools           []NodePool
	Duration        time.Duration
	Warmup          time.Duration // excluded from summary statistics
	ControlInterval time.Duration
	SchedulerPolicy sched.Policy
	Apps            []AppLoad
	BatchJobs       []TimedBatch
	HPCJobs         []TimedHPC
	HPCPolicy       hpc.Policy
	// MeasurementNoise overrides the cluster default when > 0.
	MeasurementNoise float64
	// Chaos is a fault-injection plan (a chaos.Parse spec or profile
	// name, e.g. "sensor-dropout" or "metric-drop@10m:p=0.2"); empty
	// means fault-free. The injector is seeded from Seed, so chaos runs
	// replay bit-for-bit.
	Chaos string
	// Shards is the kernel's shard count (cluster.Config's Shards; 0
	// means 1). Results are byte-identical at any value. ShardWorkers
	// bounds same-timestamp parallelism (0 = min(Shards, GOMAXPROCS)).
	Shards       int
	ShardWorkers int
}

// Validate reports scenario construction errors.
func (s Scenario) Validate() error {
	if len(s.Pools) > 0 {
		total := 0
		for _, p := range s.Pools {
			if p.Count <= 0 || p.Name == "" {
				return fmt.Errorf("harness: scenario %s has an invalid pool", s.Name)
			}
			total += p.Count
		}
		if s.Nodes != 0 && s.Nodes != total {
			return fmt.Errorf("harness: scenario %s: Nodes (%d) disagrees with pool total (%d)", s.Name, s.Nodes, total)
		}
	} else if s.Nodes <= 0 {
		return fmt.Errorf("harness: scenario %s needs nodes", s.Name)
	}
	if s.NodeCapacity.IsZero() {
		return fmt.Errorf("harness: scenario %s needs node capacity", s.Name)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("harness: scenario %s needs a duration", s.Name)
	}
	if s.Warmup >= s.Duration {
		return fmt.Errorf("harness: scenario %s warmup >= duration", s.Name)
	}
	if len(s.Apps) == 0 && len(s.BatchJobs) == 0 && len(s.HPCJobs) == 0 {
		return fmt.Errorf("harness: scenario %s has no workload", s.Name)
	}
	for _, a := range s.Apps {
		if err := a.Spec.Validate(); err != nil {
			return err
		}
		if err := workload.Validate(a.Pattern, s.Duration); err != nil {
			return fmt.Errorf("harness: app %s: %w", a.Spec.Name, err)
		}
	}
	if s.Chaos != "" {
		if _, err := chaos.Parse(s.Chaos); err != nil {
			return fmt.Errorf("harness: scenario %s: %w", s.Name, err)
		}
	}
	return nil
}

// Policy names a controller family under evaluation.
type Policy struct {
	Name    string
	Factory control.Factory
	// Overprovision multiplies each app's initial allocation before
	// deployment — how a static-requests user buys safety margin.
	Overprovision float64
}

// AppResult summarises one application under one policy.
type AppResult struct {
	App               string
	ViolationFraction float64
	MeanSLI           float64
	P99SLI            float64
	MeanReplicas      float64
	// MeanAlloc is the time-weighted mean of total allocation
	// (per-replica alloc × desired replicas) for the app, per resource.
	MeanAlloc resource.Vector
}

// Result is one full scenario run under one policy.
type Result struct {
	Scenario string
	Policy   string
	Apps     []AppResult

	// Cluster-level time-weighted means over the measurement window.
	AllocFraction resource.Vector // allocated / allocatable
	UsageFraction resource.Vector // used / allocatable
	// UsageOfAlloc is usage/allocated on the CPU dimension — the
	// headline "utilisation of what you paid for".
	UsageOfAlloc float64

	// Counters of interest.
	Binds, Preemptions, Migrations, Unschedulable uint64
	Evictions                                     uint64

	// HPC/batch outcomes (zero when the scenario has none).
	HPCMeanWait    time.Duration
	HPCMeanRuntime time.Duration
	HPCCompleted   int
	BatchMakespan  time.Duration
	BatchCompleted int

	// Economics over the measurement window (internal/cost defaults):
	// the allocation bill in dollars and the energy draw in watt-hours.
	Dollars  float64
	WattHour float64

	// Robustness outcomes (all zero in fault-free runs): what the chaos
	// injector did to the run and how the hardened control loop coped.
	SamplesDropped  uint64 // sensor samples discarded before the controller
	SamplesStale    uint64 // frozen substitutes delivered instead
	ActuationFaults uint64 // injected actuation rejections/delays/partials
	NodeCrashes     uint64 // injected node-crash windows that landed
	Retries         uint64 // actuation retries the loop scheduled
	Abandoned       uint64 // decisions given up after the retry budget
	DegradedPeriods uint64 // control periods spent in degraded mode

	// Latency outcomes (seconds, p95 upper bounds from the cluster's
	// always-on bind-time histograms; pure virtual-time intervals, so
	// byte-identical at any shard/worker count): pending→bound wait,
	// created→first-ready time, decision-applied→first-caused-bind lag.
	SchedP95  float64
	ReadyP95  float64
	EffectP95 float64

	// The full cluster for figure extraction.
	Cluster *cluster.Cluster
}

// OverallViolation returns the mean violation fraction across apps.
func (r *Result) OverallViolation() float64 {
	if len(r.Apps) == 0 {
		return 0
	}
	s := 0.0
	for _, a := range r.Apps {
		s += a.ViolationFraction
	}
	return s / float64(len(r.Apps))
}

// Hook runs arbitrary cluster surgery (failure injection, topology
// changes) at a virtual time during a scenario run.
type Hook struct {
	At time.Duration
	Do func(*cluster.Cluster)
}

// Run executes the scenario under the policy and summarises it.
func Run(sc Scenario, pol Policy) (*Result, error) {
	return RunWithHooks(sc, pol, nil)
}

// RunWithHooks is Run with injection hooks scheduled into the timeline.
func RunWithHooks(sc Scenario, pol Policy, hooks []Hook) (*Result, error) {
	return runScenario(sc, pol, hooks, nil)
}

// runScenario is the single execution path behind Run, RunWithHooks and
// the Runner: build the cluster, schedule the workload, drive the
// control loop, summarise. A non-nil enabled tracer records every
// control decision and scheduler outcome of the run.
func runScenario(sc Scenario, pol Policy, hooks []Hook, tr *obs.Tracer) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	w, err := world.New(world.Config{
		Seed:             sc.Seed,
		Nodes:            sc.Nodes,
		NodeShape:        sc.NodeCapacity,
		Pools:            sc.Pools,
		ControlInterval:  sc.ControlInterval,
		SchedulerPolicy:  sc.SchedulerPolicy,
		MeasurementNoise: sc.MeasurementNoise,
		Shards:           sc.Shards,
		ShardWorkers:     sc.ShardWorkers,
		Chaos:            sc.Chaos,
		HPCPolicy:        sc.HPCPolicy,
		Tracer:           tr,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: scenario %s: %w", sc.Name, err)
	}
	c := w.Cluster
	for _, a := range sc.Apps {
		spec := a.Spec
		if pol.Overprovision > 0 && pol.Overprovision != 1 {
			spec.InitialAlloc = spec.InitialAlloc.Scale(pol.Overprovision).Min(spec.MaxAlloc)
		}
		if err := c.CreateService(spec); err != nil {
			return nil, err
		}
		if err := c.SetLoadFunc(spec.Name, a.Pattern.Rate); err != nil {
			return nil, err
		}
		w.Loop.Add(spec.Name, pol.Factory(spec.Name))
	}

	// A submission refused inside an event callback fails the world:
	// a bad scenario fails its own result instead of panicking a whole
	// parallel sweep.
	for _, tb := range sc.BatchJobs {
		job := tb.Job
		w.Engine.At(tb.At, func() {
			if err := w.Runner.Submit(job); err != nil {
				w.Fail(fmt.Errorf("batch submit %s: %w", job.Name, err))
			}
		})
	}
	for _, th := range sc.HPCJobs {
		job := th.Job
		w.Engine.At(th.At, func() {
			if err := w.Queue.Submit(job); err != nil {
				w.Fail(fmt.Errorf("hpc submit %s: %w", job.Name, err))
			}
		})
	}
	for _, h := range hooks {
		do := h.Do
		w.Engine.At(h.At, func() { do(c) })
	}

	c.Start()
	w.Loop.Start()
	c.Run(sc.Duration)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("harness: scenario %s under %s: %w", sc.Name, pol.Name, err)
	}
	return summarise(sc, pol, w), nil
}

func summarise(sc Scenario, pol Policy, w *world.World) *Result {
	from, to := sc.Warmup, sc.Duration
	c := w.Cluster
	met := c.Metrics()
	res := &Result{Scenario: sc.Name, Policy: pol.Name, Cluster: c}

	for _, name := range c.Apps() {
		// One registry lookup per series, reused across the stats below;
		// the map lookups used to dominate this loop in profiles.
		pfx := "app/" + name + "/"
		sli := met.Series(pfx + "sli")
		replicas := met.Series(pfx + "replicas")
		ar := AppResult{App: name}
		ar.ViolationFraction = met.Series(pfx+"violation").TimeWeightedMean(from, to)
		ar.MeanSLI = sli.WindowStats(from, to).Mean
		ar.P99SLI = sli.Percentile(from, to, 99)
		ar.MeanReplicas = replicas.TimeWeightedMean(from, to)
		for _, k := range resource.Kinds() {
			// Total app allocation ≈ per-replica alloc × replicas; use
			// sample-wise product via the two step series.
			ar.MeanAlloc[k] = productMean(met.Series(pfx+"alloc/"+k.String()), replicas, from, to)
		}
		res.Apps = append(res.Apps, ar)
	}

	res.AllocFraction, res.UsageFraction = c.UtilisationSummary(from, to)
	if res.AllocFraction[resource.CPU] > 0 {
		res.UsageOfAlloc = res.UsageFraction[resource.CPU] / res.AllocFraction[resource.CPU]
	}
	res.Binds = met.Counter("sched/binds").Value()
	res.Preemptions = met.Counter("sched/preemptions").Value()
	res.Migrations = met.Counter("resize/migrations").Value()
	res.Unschedulable = met.Counter("sched/unschedulable").Value()
	res.Evictions = met.Counter("evictions/preempted").Value() + met.Counter("evictions/node-failure").Value() + met.Counter("evictions/killed").Value()

	res.HPCMeanWait, res.HPCMeanRuntime, res.HPCCompleted = w.Queue.Stats()
	st := met.Series("batch/makespan").AllStats()
	res.BatchCompleted = st.Count
	res.BatchMakespan = time.Duration(st.Mean * float64(time.Second))
	bill := cost.Summarise(met, sc.NodeCapacity.Scale(0.94), sc.Nodes, from, to,
		cost.DefaultPricing(), cost.DefaultPowerModel())
	res.Dollars, res.WattHour = bill.Dollars, bill.WattHour

	if inj := c.Chaos(); inj != nil {
		st := inj.Stats()
		res.SamplesDropped = st.SamplesDropped
		res.SamplesStale = st.SamplesFrozen
		res.ActuationFaults = st.Rejected + st.Delayed + st.Partial
		res.NodeCrashes = st.NodeCrashes
	}
	ls := w.Loop.Stats()
	res.Retries = ls.Retries
	res.Abandoned = ls.Abandoned
	res.DegradedPeriods = ls.DegradedPeriods
	res.SchedP95, res.ReadyP95, res.EffectP95 = c.LatencySummary()
	return res
}

// productMean computes the mean of the product of two series that are
// sampled at identical tick timestamps (as all cluster app series are).
// Both windows are zero-copy sub-slices fused in a single pass.
func productMean(sa, sb *metrics.Series, from, to time.Duration) float64 {
	wa := sa.Window(from, to)
	wb := sb.Window(from, to)
	n := len(wa)
	if len(wb) < n {
		n = len(wb)
	}
	if n == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += wa[i].Value * wb[i].Value
	}
	return s / float64(n)
}
