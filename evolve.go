// Package evolve is the public API of the EVOLVE resource-management
// library: a converged big-data / HPC / cloud cluster substrate with a
// multi-resource, adaptive, PID-based autoscaler that maps user-level
// performance objectives (PLOs) to CPU, memory, disk-I/O and network
// allocations.
//
// A Cluster is a deterministic discrete-event simulation of a Kubernetes-
// style cluster. Deploy replicated services with performance objectives,
// drive them with load patterns, submit big-data DAG jobs and rigid HPC
// gangs, pick a resource-management policy, run virtual time forward and
// read the outcome:
//
//	c, _ := evolve.New(evolve.Options{Seed: 1, Nodes: 5})
//	_ = c.AddService(evolve.ServiceOptions{
//	    Name: "web", Archetype: "web", BaseRate: 300,
//	    LatencyObjective: 100 * time.Millisecond,
//	})
//	_ = c.SetLoad("web", evolve.Diurnal(150, 900, 2*time.Hour))
//	_ = c.Run(2 * time.Hour)
//	fmt.Println(c.Report())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reconstructed evaluation.
package evolve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"evolve/internal/batch"
	"evolve/internal/ckpt"
	"evolve/internal/control"
	"evolve/internal/hpc"
	"evolve/internal/obs"
	"evolve/internal/perf"
	"evolve/internal/plo"
	"evolve/internal/resource"
	"evolve/internal/workload"
	"evolve/internal/world"
)

// Options configures a Cluster.
type Options struct {
	// Seed drives all randomness; runs with the same seed and workload
	// replay identically. Defaults to 1.
	Seed int64
	// Nodes is the cluster size (default 5).
	Nodes int
	// NodeShape is the per-node capacity as a resource string, e.g.
	// "cpu=16 memory=64Gi diskio=1G netio=2G". Defaults to that shape.
	NodeShape string
	// ControlInterval is how often the policy runs (default 15s).
	ControlInterval time.Duration
	// Policy selects the resource manager, in any case: "evolve"
	// (default), "hpa", "vpa", "static", or "pid-cpu-only".
	Policy string
	// Overprovision scales every service's initial allocation (static
	// deployments usually carry a safety factor). Default 1.
	Overprovision float64
	// MeasurementNoise is the SLI jitter fraction (default 0.03).
	MeasurementNoise float64
	// HPCQueue selects the gang queue discipline, in any case:
	// "backfill" (default), "easy" (backfill with head reservation) or
	// "fcfs". Any other name fails New.
	HPCQueue string
	// Pools, when set, replaces the flat Nodes topology with labeled
	// pools; workloads carrying a matching Pool option are confined to
	// them. Nodes is ignored when Pools is non-empty.
	Pools []PoolOptions
	// Chaos installs a fault-injection plan: a named profile
	// ("node-kill", "sensor-dropout", "actuation-flake", "mixed") or a
	// plan in the chaos DSL, e.g.
	// "node-crash@30m-45m:node=node-0;metric-drop@10m:p=0.2". The
	// injector is seeded from Seed, so a (seed, plan) pair replays
	// bit-for-bit. Empty means fault-free.
	Chaos string
	// ScoreWorkers accepts only 0 or 1: placement scoring is always
	// sequential, and New refuses larger values.
	//
	// Deprecated: the parallel score fan-out was removed because it
	// never beat sequential scoring end to end. The field goes away in
	// a later release.
	ScoreWorkers int
	// Shards splits the simulation kernel's tick: each of its per-app
	// and per-node phases runs on this many partitions of the apps and
	// nodes, with the commits that need a global order run serially
	// between phases. 0 means 1 — every world runs the same phased tick,
	// one shard being the smallest partition. Results are
	// byte-identical at any shard count. Worth raising for large
	// topologies (thousands of nodes and up) on multi-core machines.
	Shards int
	// ShardWorkers bounds how many shards run a phase concurrently
	// (0 = min(Shards, GOMAXPROCS), 1 = every phase inline). Identical
	// results at any value.
	ShardWorkers int
	// CtrlWorkers accepts only 0 or 1: the control plane always
	// evaluates inline and drains the pending backlog pod by pod, and
	// New refuses larger values.
	//
	// Deprecated: the parallel control plane was removed because it
	// never beat the inline step end to end. The field goes away in a
	// later release.
	CtrlWorkers int
	// History is how much telemetry each series retains: the samples of
	// the last History of virtual time, which is what SeriesSamples,
	// WriteSeriesCSV and /series return and what checkpoints carry.
	// Report and /metrics do not depend on it — they read the latest
	// sample and exact whole-run aggregates. Zero means 15 minutes;
	// set it to the run length to export whole trajectories. Negative
	// values fail New.
	History time.Duration
	// DebugPprof mounts net/http/pprof under /debug/pprof/ on the
	// Handler mux so control-period profiles can be captured from a live
	// process. Off by default: the profiling endpoints expose stacks and
	// binary internals, which not every deployment wants on its debug
	// port.
	DebugPprof bool
}

// defaultHistory is the telemetry retention of Options.History zero.
const defaultHistory = 15 * time.Minute

// PoolOptions declares one labeled node pool; its nodes carry the label
// pool=<Name>.
type PoolOptions struct {
	Name  string
	Nodes int
}

// ServiceOptions declares a replicated service.
type ServiceOptions struct {
	Name string
	// Archetype picks the performance profile: "web" (CPU-bound),
	// "gateway" (network-bound), "kvstore" (disk-bound, tail-latency
	// objective) or "inference" (memory-heavy). Default "web".
	Archetype string
	// BaseRate is the sizing-point load in operations/second.
	BaseRate float64
	// Replicas is the initial replica count (default 2).
	Replicas int
	// LatencyObjective overrides the archetype's PLO with a mean-latency
	// bound; ThroughputObjective with an ops/second floor. At most one.
	LatencyObjective    time.Duration
	ThroughputObjective float64
	// StartupDelay is how long a new replica takes before serving
	// (image pull + init + warmup). In-place vertical resizes are never
	// delayed. Zero means instant.
	StartupDelay time.Duration
	// Pool, when set, confines replicas to nodes of that pool (see
	// Options.Pools). Empty means any node.
	Pool string
}

// BatchJobOptions declares a TeraSort-like DAG job (map → sort → reduce).
type BatchJobOptions struct {
	Name string
	// Scale multiplies task counts (default 1 ⇒ 8 map + 4 sort + 4
	// reduce tasks).
	Scale float64
	// SubmitAt is the virtual submission time.
	SubmitAt time.Duration
	// Pool, when set, confines the job's tasks to that pool.
	Pool string
}

// HPCJobOptions declares a rigid gang job.
type HPCJobOptions struct {
	Name  string
	Ranks int
	// CPUSecondsPerRank is the per-rank work (default 420000 mc·s ≈ one
	// minute at 7 cores).
	CPUSecondsPerRank float64
	// SubmitAt is the virtual submission time.
	SubmitAt time.Duration
	// Pool, when set, confines the ranks to that pool.
	Pool string
}

// LoadFunc is an offered-load function over virtual time (ops/second).
type LoadFunc func(at time.Duration) float64

// Constant returns a flat load.
func Constant(rate float64) LoadFunc {
	return workload.Constant(rate).Rate
}

// Diurnal returns a day/night sinusoid between trough and peak.
func Diurnal(trough, peak float64, period time.Duration) LoadFunc {
	return workload.Diurnal{Trough: trough, Peak: peak, Period: period}.Rate
}

// Step jumps from before to after at the given time.
func Step(before, after float64, at time.Duration) LoadFunc {
	return workload.Step{Before: before, After: after, At: at}.Rate
}

// FlashCrowd spikes from base to spike during [start, start+length).
func FlashCrowd(base, spike float64, start, length time.Duration) LoadFunc {
	return workload.FlashCrowd{Base: base, Spike: spike, Start: start, Length: length}.Rate
}

// Noisy wraps a load function with deterministic multiplicative noise.
func Noisy(inner LoadFunc, frac float64, seed int64) LoadFunc {
	return workload.Noisy{Inner: workload.Func(inner), Frac: frac, Seed: seed}.Rate
}

// FromTraceCSV replays a seconds,rate trace (as written by evolve-trace
// or WriteSeriesCSV-compatible tooling) as a load function with step
// interpolation. The whole trace is read up front.
func FromTraceCSV(r io.Reader) (LoadFunc, error) {
	tr, err := workload.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return tr.Rate, nil
}

// Cluster is a simulated converged cluster plus its resource-management
// control loop. Not safe for concurrent use.
type Cluster struct {
	opts    Options
	policy  string // canonical policy name, carried in checkpoint headers
	w       *world.World
	ctrl    map[string]control.Controller
	factory control.Factory
	started bool

	tracer *obs.Tracer

	// Checkpoint plumbing (ckpt.go): ckptEvery/ckptDir configure the
	// periodic snapshot timer, and lastLoopState is the
	// controller-process blob the ctrl-crash restore path hands back to
	// the restarted loop. lastCkpt retains the latest checkpoint as the
	// segments its buffer writer emitted: the tracer rings' chunks are
	// referenced, not copied (the rings pin them), and the rest of the
	// world is in ckptBufs. After a Restore it is one segment, the
	// restored blob. ckptSpare are the buffers of the checkpoint before
	// last, which the next firing encodes into.
	ckptEvery     time.Duration
	ckptDir       string
	ckptCount     int
	ckptBytes     int64
	lastCkpt      ckpt.Segments
	ckptBufs      [][]byte
	ckptSpare     [][]byte
	lastLoopState []byte
}

// start performs the one-time arming of the periodic processes: tracer
// installation, the cluster tick, the control loop, any ctrl-crash
// windows from the chaos plan, and the checkpoint timer. Run and
// Restore both funnel through it, in this order, so a restored world
// arms the same timers in the same sequence as the original.
func (cl *Cluster) start() {
	if cl.started {
		return
	}
	cl.started = true
	if cl.tracer.Enabled() {
		cl.w.Cluster.SetTracer(cl.tracer)
	}
	cl.w.Loop.SetTracer(cl.tracer)
	cl.w.Cluster.Start()
	cl.w.Loop.Start()
	cl.armCtrlCrash()
	cl.armCheckpoints()
}

// New builds a cluster from options.
func New(opts Options) (*Cluster, error) {
	if opts.ScoreWorkers != 0 && opts.ScoreWorkers != 1 {
		return nil, fmt.Errorf("evolve: ScoreWorkers %d: parallel scoring was removed; use 0 or 1", opts.ScoreWorkers)
	}
	if opts.CtrlWorkers != 0 && opts.CtrlWorkers != 1 {
		return nil, fmt.Errorf("evolve: CtrlWorkers %d: the parallel control plane was removed; use 0 or 1", opts.CtrlWorkers)
	}
	if opts.History < 0 {
		return nil, fmt.Errorf("evolve: negative History %v", opts.History)
	}
	if opts.History == 0 {
		opts.History = defaultHistory
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 5
	}
	if opts.Overprovision <= 0 {
		opts.Overprovision = 1
	}
	var shape resource.Vector
	if opts.NodeShape != "" {
		var err error
		if shape, err = resource.ParseVector(opts.NodeShape); err != nil {
			return nil, fmt.Errorf("evolve: node shape: %w", err)
		}
	}
	policy, factory, err := world.Policy(opts.Policy)
	if err != nil {
		return nil, fmt.Errorf("evolve: %w", err)
	}
	queue, err := hpc.ParsePolicy(opts.HPCQueue)
	if err != nil {
		return nil, fmt.Errorf("evolve: %w", err)
	}
	pools := make([]world.Pool, len(opts.Pools))
	for i, p := range opts.Pools {
		pools[i] = world.Pool{Name: p.Name, Count: p.Nodes, Labels: map[string]string{"pool": p.Name}}
	}
	w, err := world.New(world.Config{
		Seed:             opts.Seed,
		Nodes:            opts.Nodes,
		NodeShape:        shape,
		Pools:            pools,
		ControlInterval:  opts.ControlInterval,
		MeasurementNoise: opts.MeasurementNoise,
		Shards:           opts.Shards,
		ShardWorkers:     opts.ShardWorkers,
		Chaos:            opts.Chaos,
		HPCPolicy:        queue,
		History:          opts.History,
	})
	if err != nil {
		return nil, fmt.Errorf("evolve: %w", err)
	}
	return &Cluster{
		opts:    opts,
		policy:  policy,
		w:       w,
		ctrl:    make(map[string]control.Controller),
		factory: factory,
		tracer:  obs.Nop(),
	}, nil
}

// AddService deploys a replicated service sized for its base rate.
func (cl *Cluster) AddService(o ServiceOptions) error {
	if cl.started {
		return fmt.Errorf("evolve: cannot add services after Run")
	}
	if o.Name == "" {
		return fmt.Errorf("evolve: service needs a name")
	}
	if o.BaseRate <= 0 {
		return fmt.Errorf("evolve: service %s needs a positive BaseRate", o.Name)
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	arch, err := workload.ParseArchetype(o.Archetype)
	if err != nil {
		return fmt.Errorf("evolve: %w", err)
	}
	spec := workload.Service(arch, o.Name, o.BaseRate, o.Replicas)
	if o.LatencyObjective > 0 && o.ThroughputObjective > 0 {
		return fmt.Errorf("evolve: service %s: set at most one objective", o.Name)
	}
	if o.LatencyObjective > 0 {
		spec.PLO = plo.Latency(o.LatencyObjective)
	}
	if o.ThroughputObjective > 0 {
		spec.PLO = plo.MinThroughput(o.ThroughputObjective)
	}
	if o.StartupDelay < 0 {
		return fmt.Errorf("evolve: service %s: negative startup delay", o.Name)
	}
	spec.StartupDelay = o.StartupDelay
	if o.Pool != "" {
		spec.NodeSelector = map[string]string{"pool": o.Pool}
	}
	if cl.opts.Overprovision != 1 {
		spec.InitialAlloc = spec.InitialAlloc.Scale(cl.opts.Overprovision).Min(spec.MaxAlloc)
	}
	if err := cl.w.Cluster.CreateService(spec); err != nil {
		return err
	}
	ctrl := cl.factory(o.Name)
	cl.ctrl[o.Name] = ctrl
	cl.w.Loop.Add(o.Name, ctrl)
	return nil
}

// SetLoad installs the offered-load function for a service.
func (cl *Cluster) SetLoad(service string, fn LoadFunc) error {
	if fn == nil {
		return fmt.Errorf("evolve: nil load function")
	}
	return cl.w.Cluster.SetLoadFunc(service, fn)
}

// SubmitBatchJob schedules a DAG job for submission at SubmitAt.
func (cl *Cluster) SubmitBatchJob(o BatchJobOptions) error {
	if o.Name == "" {
		return fmt.Errorf("evolve: batch job needs a name")
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	job := batch.TeraSortLike(o.Name, o.Scale, 0)
	if o.Pool != "" {
		for i := range job.Stages {
			job.Stages[i].NodeSelector = map[string]string{"pool": o.Pool}
		}
	}
	cl.w.Engine.TagNext("batch-submit", o.Name)
	cl.w.Engine.At(o.SubmitAt, func() {
		if err := cl.w.Runner.Submit(job); err != nil {
			cl.w.Fail(fmt.Errorf("batch submit %s: %w", o.Name, err))
		}
	})
	return nil
}

// SubmitHPCJob schedules a rigid gang job for submission at SubmitAt.
func (cl *Cluster) SubmitHPCJob(o HPCJobOptions) error {
	if o.Name == "" {
		return fmt.Errorf("evolve: hpc job needs a name")
	}
	if o.Ranks <= 0 {
		return fmt.Errorf("evolve: hpc job %s needs ranks", o.Name)
	}
	work := o.CPUSecondsPerRank
	if work <= 0 {
		work = 420000
	}
	job := hpc.JobSpec{
		Name:    o.Name,
		Ranks:   o.Ranks,
		PerRank: resource.New(7000, 16<<30, 50e6, 200e6),
		Model:   perf.TaskModel{Work: resource.New(work, 0, 5e9, 2e9), MemSet: 8 << 30},
	}
	if o.Pool != "" {
		job.NodeSelector = map[string]string{"pool": o.Pool}
	}
	cl.w.Engine.TagNext("hpc-submit", o.Name)
	cl.w.Engine.At(o.SubmitAt, func() {
		if err := cl.w.Queue.Submit(job); err != nil {
			cl.w.Fail(fmt.Errorf("hpc submit %s: %w", o.Name, err))
		}
	})
	return nil
}

// Run advances virtual time by d, driving telemetry and the hardened
// control loop (see internal/control.Loop: integral freeze while the
// sensor path is blind, hold-last-safe past the staleness budget, and
// bounded retry of transiently failed actuations). It may be called
// repeatedly to run in stages. A failure inside the run — a
// non-transient control-plane error, a refused batch or HPC submission,
// a failed checkpoint — stops the world at that instant (Now reports
// it) and is returned. It is sticky: later calls advance nothing and
// return it again.
func (cl *Cluster) Run(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("evolve: non-positive run duration")
	}
	cl.start()
	cl.w.Cluster.Run(cl.w.Engine.Now() + d)
	return cl.err()
}

// err returns the world's sticky failure, if any.
func (cl *Cluster) err() error {
	if err := cl.w.Err(); err != nil {
		return fmt.Errorf("evolve: %w", err)
	}
	return nil
}

// Now returns the current virtual time.
func (cl *Cluster) Now() time.Duration { return cl.w.Engine.Now() }

// ServiceReport summarises one service's outcome so far.
type ServiceReport struct {
	Name              string
	Objective         string
	ViolationFraction float64
	MeanSLI           float64
	Replicas          int
	AllocPerReplica   string
	// BurnRate is violation-seconds consumed per error-budget second
	// earned (SRE burn rate; 1.0 is the sustainable ceiling, see
	// internal/plo.BurnTracker).
	BurnRate float64
}

// Report summarises the run so far.
type Report struct {
	Elapsed  time.Duration
	Services []ServiceReport
	// ClusterCPUAllocated/Used are fractions of allocatable capacity.
	ClusterCPUAllocated float64
	ClusterCPUUsed      float64
	BatchJobsCompleted  uint64
	HPCJobsCompleted    uint64
	// HPCMeanWait is the mean queue time of completed rigid jobs.
	HPCMeanWait time.Duration
	Preemptions uint64
	// Robustness counters; all zero in fault-free runs.
	DegradedPeriods  uint64 // control periods spent holding the last safe point
	ActuationRetries uint64 // transiently failed actuations retried with backoff
	Abandoned        uint64 // decisions given up after the retry budget
	// Tracer health (zero/empty when tracing is off): ring totals, ring
	// drops (capacity exhausted between snapshots) and the first latched
	// JSONL sink error, so silent trace loss is visible in the report.
	TraceEvents       uint64
	TraceDropped      uint64
	TraceSpans        uint64
	TraceSpansDropped uint64
	TraceSinkError    string
}

// String renders the report for terminals.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "after %v: cluster cpu allocated %.1f%%, used %.1f%%\n",
		r.Elapsed, r.ClusterCPUAllocated*100, r.ClusterCPUUsed*100)
	for _, s := range r.Services {
		fmt.Fprintf(&b, "  service %-12s %-24s violations %.2f%%  mean SLI %.4f  replicas %d  alloc/replica %s\n",
			s.Name, s.Objective, s.ViolationFraction*100, s.MeanSLI, s.Replicas, s.AllocPerReplica)
	}
	if r.BatchJobsCompleted > 0 || r.HPCJobsCompleted > 0 {
		fmt.Fprintf(&b, "  batch jobs done %d, hpc jobs done %d, preemptions %d\n",
			r.BatchJobsCompleted, r.HPCJobsCompleted, r.Preemptions)
	}
	if r.DegradedPeriods > 0 || r.ActuationRetries > 0 || r.Abandoned > 0 {
		fmt.Fprintf(&b, "  degraded periods %d, actuation retries %d, abandoned %d\n",
			r.DegradedPeriods, r.ActuationRetries, r.Abandoned)
	}
	if r.TraceDropped > 0 || r.TraceSpansDropped > 0 || r.TraceSinkError != "" {
		fmt.Fprintf(&b, "  trace health: %d events dropped, %d spans dropped, sink error %q\n",
			r.TraceDropped, r.TraceSpansDropped, r.TraceSinkError)
	}
	return b.String()
}

// Report computes the summary over everything run so far.
func (cl *Cluster) Report() Report {
	met := cl.w.Cluster.Metrics()
	now := cl.w.Engine.Now()
	r := Report{Elapsed: now}
	names := cl.w.Cluster.Apps()
	sort.Strings(names)
	for _, name := range names {
		tr, err := cl.w.Cluster.Tracker(name)
		if err != nil {
			continue
		}
		app, err := cl.w.Cluster.App(name)
		if err != nil {
			continue
		}
		sli := met.Lookup("app/" + name + "/sli").Total().Mean()
		r.Services = append(r.Services, ServiceReport{
			Name:              name,
			Objective:         tr.PLO().String(),
			ViolationFraction: tr.ViolationFraction(),
			MeanSLI:           sli,
			Replicas:          app.DesiredReplicas,
			AllocPerReplica:   app.Alloc.String(),
			BurnRate:          tr.Burn().BurnRate(),
		})
	}
	r.ClusterCPUAllocated = met.Lookup("cluster/allocated/cpu").Total().TimeWeightedMean(now)
	r.ClusterCPUUsed = met.Lookup("cluster/usage/cpu").Total().TimeWeightedMean(now)
	r.BatchJobsCompleted = met.CounterValue("batch/jobs-completed")
	r.HPCJobsCompleted = met.CounterValue("hpc/jobs-completed")
	r.HPCMeanWait, _, _ = cl.w.Queue.Stats()
	r.Preemptions = met.CounterValue("sched/preemptions")
	ls := cl.w.Loop.Stats()
	r.DegradedPeriods = ls.DegradedPeriods
	r.ActuationRetries = ls.Retries
	r.Abandoned = ls.Abandoned
	if cl.tracer.Enabled() {
		r.TraceEvents = cl.tracer.Events()
		r.TraceDropped = cl.tracer.Dropped()
		r.TraceSpans = cl.tracer.Spans()
		r.TraceSpansDropped = cl.tracer.SpansDropped()
		if err := cl.tracer.SinkErr(); err != nil {
			r.TraceSinkError = err.Error()
		} else if err := cl.tracer.SpanSinkErr(); err != nil {
			r.TraceSinkError = err.Error()
		}
	}
	return r
}

// Violations returns the PLO violation fraction for one service.
func (cl *Cluster) Violations(service string) (float64, error) {
	tr, err := cl.w.Cluster.Tracker(service)
	if err != nil {
		return 0, err
	}
	return tr.ViolationFraction(), nil
}

// HPCStatus returns "queued", "running", "done" or "failed" for a
// submitted HPC job.
func (cl *Cluster) HPCStatus(job string) (string, error) { return cl.w.Queue.Status(job) }

// BatchDone reports whether a DAG job finished and its makespan.
func (cl *Cluster) BatchDone(job string) (time.Duration, bool) { return cl.w.Runner.Done(job) }

// EventRecord is one entry of the cluster's operational journal.
type EventRecord struct {
	At      time.Duration
	Kind    string
	Object  string
	Message string
}

// Events returns the operational journal oldest-first: placements,
// evictions, preemptions, migrations, task completions, node failures.
// The journal is bounded to the most recent ~2k events.
func (cl *Cluster) Events() []EventRecord {
	evs := cl.w.Cluster.Events()
	out := make([]EventRecord, len(evs))
	for i, e := range evs {
		out[i] = EventRecord{At: e.At, Kind: e.Kind, Object: e.Object, Message: e.Message}
	}
	return out
}

// EnableTracing installs a decision tracer with the given ring capacity
// (obs.DefaultCapacity when <= 0) and returns it. Every control decision
// (with its PID term decomposition), scheduler outcome, registry delta
// and PLO violation transition is recorded onto the ring; attach a sink
// with Tracer().SetSink to also stream events as JSONL. Idempotent:
// repeated calls return the existing tracer.
func (cl *Cluster) EnableTracing(capacity int) *obs.Tracer {
	if cl.tracer.Enabled() {
		return cl.tracer
	}
	cl.tracer = obs.New(capacity)
	// Before the first Run the cluster installation is deferred (Run does
	// it) so callers can attach a sink before the registry replays its
	// existing objects as trace events.
	if cl.started {
		cl.w.Cluster.SetTracer(cl.tracer)
		cl.w.Loop.SetTracer(cl.tracer)
	}
	return cl.tracer
}

// Tracer returns the cluster's decision tracer (the shared no-op tracer
// until EnableTracing is called).
func (cl *Cluster) Tracer() *obs.Tracer { return cl.tracer }

// WriteMetrics writes the cluster's telemetry in Prometheus text
// exposition format (version 0.0.4): gauges for the latest sample of
// every series, counters, and the SLI histograms with cumulative
// buckets. With periodic checkpoints enabled it adds their count
// (evolve_checkpoints_total) and the size of the newest one
// (evolve_checkpoint_last_bytes, LastCheckpoint's length).
func (cl *Cluster) WriteMetrics(w io.Writer) error {
	var extra []obs.Meter
	if cl.ckptEvery > 0 {
		extra = []obs.Meter{
			{Name: "evolve_checkpoints_total", Value: uint64(cl.ckptCount)},
			{Name: "evolve_checkpoint_last_bytes", Value: uint64(cl.lastCkpt.Len())},
		}
	}
	return obs.WriteMetrics(w, cl.w.Cluster.Metrics(), cl.tracer, extra...)
}

// ControllerState is one entry of the /debug/controllers view: what a
// policy most recently decided for its application and why.
type ControllerState struct {
	App       string             `json:"app"`
	Policy    string             `json:"policy"`
	Rationale string             `json:"rationale,omitempty"`
	Replicas  int                `json:"replicas"`
	Alloc     map[string]float64 `json:"alloc,omitempty"`
	// Degraded reports whether the hardened loop is holding the last
	// safe operating point for this app because its observations went
	// blind past the staleness budget; Health is the wrapper's one-line
	// state ("healthy", "integral frozen (...)", "degraded (...)").
	Degraded bool   `json:"degraded,omitempty"`
	Health   string `json:"health,omitempty"`
	// Trace is the controller's latest decision decomposition; nil for
	// policies that do not implement control.Traceable.
	Trace *obs.ControlTrace `json:"trace,omitempty"`
}

// ControllerStates reports the current state of every per-app
// controller, sorted by application name.
func (cl *Cluster) ControllerStates() []ControllerState {
	names := make([]string, 0, len(cl.ctrl))
	for name := range cl.ctrl {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ControllerState, 0, len(names))
	for _, name := range names {
		ctrl := cl.ctrl[name]
		st := ControllerState{App: name, Policy: ctrl.Name()}
		if ex, ok := ctrl.(control.Explainer); ok {
			st.Rationale = ex.Rationale()
		}
		if h, ok := cl.w.Loop.Hardened(name); ok {
			st.Degraded = h.Degraded()
			st.Health = h.Status()
		}
		if d, ok := cl.w.Loop.LastDecision(name); ok {
			st.Replicas = d.Replicas
			st.Alloc = make(map[string]float64, resource.NumKinds)
			for _, k := range resource.Kinds() {
				st.Alloc[k.String()] = d.Alloc[k]
			}
		}
		if t, ok := ctrl.(control.Traceable); ok {
			tr := t.DecisionTrace()
			st.Trace = &tr
		}
		out = append(out, st)
	}
	return out
}

// SeriesNames lists the recorded telemetry series.
func (cl *Cluster) SeriesNames() []string { return cl.w.Cluster.Metrics().SeriesNames() }

// SeriesSample is one recorded point of a telemetry series.
type SeriesSample struct {
	At    time.Duration
	Value float64
}

// SeriesSamples returns the retained points of one telemetry series
// ("app/web/violation", "cluster/usage/cpu", …) oldest-first — the last
// Options.History of the run — for programmatic post-processing (the
// harness's recovery analysis); WriteSeriesCSV is the textual
// equivalent.
func (cl *Cluster) SeriesSamples(name string) ([]SeriesSample, error) {
	if !cl.w.Cluster.Metrics().HasSeries(name) {
		return nil, fmt.Errorf("%w: %q (see SeriesNames)", ErrUnknownSeries, name)
	}
	samples := cl.w.Cluster.Metrics().Lookup(name).Samples()
	out := make([]SeriesSample, len(samples))
	for i, p := range samples {
		out[i] = SeriesSample{At: p.At, Value: p.Value}
	}
	return out, nil
}

// ErrUnknownSeries is returned (wrapped) by WriteSeriesCSV when the
// named series does not exist; other errors indicate write failures.
var ErrUnknownSeries = errors.New("evolve: unknown series")

// WriteSeriesCSV dumps the retained window (Options.History) of one
// telemetry series ("app/web/latency-mean", "cluster/usage/cpu", …) as
// seconds,value CSV.
func (cl *Cluster) WriteSeriesCSV(name string, w io.Writer) error {
	if !cl.w.Cluster.Metrics().HasSeries(name) {
		return fmt.Errorf("%w: %q (see SeriesNames)", ErrUnknownSeries, name)
	}
	s := cl.w.Cluster.Metrics().Lookup(name)
	if _, err := fmt.Fprintln(w, "seconds,value"); err != nil {
		return err
	}
	for _, p := range s.Samples() {
		v := p.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		if _, err := fmt.Fprintf(w, "%.3f,%g\n", p.At.Seconds(), v); err != nil {
			return err
		}
	}
	return nil
}
