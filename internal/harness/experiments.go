package harness

import (
	"fmt"
	"time"

	"evolve/internal/baseline"
	"evolve/internal/batch"
	"evolve/internal/core"
	"evolve/internal/hpc"
	"evolve/internal/perf"
	"evolve/internal/resource"
	"evolve/internal/sched"
	"evolve/internal/workload"
	"evolve/internal/world"
)

// StandardPolicies returns the five policies of the headline comparison.
// Static requests appear twice because a user who never adjusts them must
// choose between under-provisioning (2x the sizing point, cheaper, misses
// the 3x diurnal peak) and peak-provisioning (3x, safe, wasteful) — the
// two ends of the frontier Figure 7 sweeps.
func StandardPolicies() []Policy {
	return []Policy{
		{Name: "evolve", Factory: core.Factory(core.DefaultConfig())},
		{Name: "static-2x", Factory: baseline.StaticFactory(), Overprovision: 2.0},
		{Name: "static-3x", Factory: baseline.StaticFactory(), Overprovision: 3.0},
		{Name: "hpa", Factory: baseline.HPAFactory(baseline.DefaultHPAConfig())},
		{Name: "vpa", Factory: baseline.VPAFactory(baseline.DefaultVPAConfig())},
	}
}

// CloudApps builds the latency-sensitive service mix: one of each
// archetype, each under a diurnal cycle (trough ½×, peak 3× base) with
// deterministic noise, phase-shifted via different periods.
func CloudApps(seed int64) []AppLoad {
	mk := func(a workload.Archetype, name string, base float64, period time.Duration, idx int64) AppLoad {
		return AppLoad{
			Spec: workload.Service(a, name, base, 2),
			Pattern: workload.Noisy{
				Inner: workload.Diurnal{Trough: base * 0.5, Peak: base * 3, Period: period},
				Frac:  0.08,
				Seed:  seed + idx,
			},
		}
	}
	return []AppLoad{
		mk(workload.Web, "web", 400, 2*time.Hour, 1),
		mk(workload.Gateway, "gateway", 300, 100*time.Minute, 2),
		mk(workload.KVStore, "kvstore", 200, 140*time.Minute, 3),
		mk(workload.Inference, "inference", 30, 2*time.Hour, 4),
	}
}

// BatchStream submits a TeraSort-like DAG every interval.
func BatchStream(n int, every time.Duration, scale float64) []TimedBatch {
	out := make([]TimedBatch, n)
	for i := 0; i < n; i++ {
		out[i] = TimedBatch{
			At:  time.Duration(i+1) * every,
			Job: batch.TeraSortLike(fmt.Sprintf("tsort-%d", i), scale, 0),
		}
	}
	return out
}

// HPCStream submits rigid gang jobs every interval with alternating gang
// sizes (2, 4, …, maxRanks ranks); each rank runs about four minutes at
// its full CPU grant, so consecutive jobs overlap and the queue policy
// matters.
func HPCStream(n int, every time.Duration, maxRanks int) []TimedHPC {
	if maxRanks < 2 {
		maxRanks = 2
	}
	out := make([]TimedHPC, n)
	for i := 0; i < n; i++ {
		ranks := 2 + 2*(i%(maxRanks/2))
		out[i] = TimedHPC{
			At: time.Duration(i+1) * every,
			Job: hpc.JobSpec{
				Name:    fmt.Sprintf("mpi-%d", i),
				Ranks:   ranks,
				PerRank: resource.New(7000, 16<<30, 50e6, 200e6),
				Model:   perf.TaskModel{Work: resource.New(1680000, 0, 5e9, 2e9), MemSet: 8 << 30},
			},
		}
	}
	return out
}

// Mix identifies one of the Table 1 workload mixes.
type Mix string

// The three mixes of the headline comparison.
const (
	MixCloud      Mix = "cloud"
	MixCloudBatch Mix = "cloud+batch"
	MixConverged  Mix = "converged"
)

// Mixes lists the Table 1 mixes in order.
func Mixes() []Mix { return []Mix{MixCloud, MixCloudBatch, MixConverged} }

// BuildScenario assembles a named mix at the standard scale.
func BuildScenario(mix Mix, seed int64) Scenario {
	// Five standard nodes (~75 cores): enough for the service peaks,
	// tight enough that the batch and HPC streams genuinely contend with
	// the services in the richer mixes.
	sc := Scenario{
		Name:            string(mix),
		Seed:            seed,
		Nodes:           5,
		NodeCapacity:    world.DefaultNodeShape(),
		Duration:        2 * time.Hour,
		Warmup:          10 * time.Minute,
		ControlInterval: 15 * time.Second,
		SchedulerPolicy: sched.PolicySpread,
		Apps:            CloudApps(seed),
	}
	switch mix {
	case MixCloudBatch:
		sc.BatchJobs = BatchStream(8, 14*time.Minute, 2)
	case MixConverged:
		sc.BatchJobs = BatchStream(7, 15*time.Minute, 2)
		sc.HPCJobs = HPCStream(12, 8*time.Minute, 6)
		sc.HPCPolicy = hpc.Backfill
	}
	return sc
}

// Table1 runs the headline comparison: PLO violations and utilisation
// per policy across the three mixes. All (mix, policy) runs are
// independent and fan out through the runner.
func Table1(r *Runner, seed int64) (*Table, map[string]*Result, error) {
	r = ensureRunner(r)
	t := &Table{
		ID:    "Table 1",
		Title: "PLO violations and cluster utilisation: EVOLVE vs Kubernetes-style baselines",
		Headers: []string{
			"mix", "policy", "violations %", "p99 SLI (norm)",
			"cpu alloc frac", "cpu usage frac", "usage/alloc",
		},
		Notes: []string{
			"violations % = time-weighted fraction of samples breaching the PLO beyond its margin, warmup excluded",
			"p99 SLI (norm) = 99th percentile of the SLI normalised by the PLO target, mean across apps",
			"usage/alloc = cluster CPU actually used over CPU allocated (how much of what was reserved did work)",
			"oracle = clairvoyant upper bound: right-sizes from the true performance model every period",
		},
	}
	var jobs []RunJob
	for _, mix := range Mixes() {
		sc := BuildScenario(mix, seed)
		policies := append(StandardPolicies(),
			Policy{Name: "oracle", Factory: OracleFactory(sc.Apps, 0.7)})
		for _, pol := range policies {
			jobs = append(jobs, RunJob{Scenario: sc, Policy: pol})
		}
	}
	runs, err := r.RunMany(jobs)
	if err != nil {
		return nil, nil, fmt.Errorf("table1 %w", err)
	}
	results := make(map[string]*Result, len(runs))
	for i, res := range runs {
		sc := jobs[i].Scenario
		results[sc.Name+"/"+res.Policy] = res
		normP99 := 0.0
		for _, a := range res.Apps {
			target := targetFor(sc, a.App)
			if target > 0 {
				normP99 += a.P99SLI / target
			}
		}
		normP99 /= float64(len(res.Apps))
		t.AddRow(sc.Name, res.Policy,
			res.OverallViolation()*100, normP99,
			res.AllocFraction[resource.CPU], res.UsageFraction[resource.CPU],
			res.UsageOfAlloc)
	}
	return t, results, nil
}

func targetFor(sc Scenario, app string) float64 {
	for _, a := range sc.Apps {
		if a.Spec.Name == app {
			return a.Spec.PLO.Target
		}
	}
	return 0
}

// Table2 is the multi-resource ablation: each archetype (whose bottleneck
// resource differs) under a 2.5x step load, controlled by the full
// multi-resource controller vs the CPU-only scalar PID.
func Table2(r *Runner, seed int64) (*Table, error) {
	r = ensureRunner(r)
	t := &Table{
		ID:      "Table 2",
		Title:   "Multi-resource vs CPU-only PID across bottleneck types (2.5x load step)",
		Headers: []string{"archetype", "bottleneck", "policy", "violations %", "mean SLI (norm)"},
		Notes: []string{
			"the CPU-only PID can only buy CPU; on disk-, net- and memory-bound services it must fail",
		},
	}
	bottleneck := map[workload.Archetype][]resource.Kind{
		workload.Web:       {resource.CPU},
		workload.Gateway:   {resource.NetIO},
		workload.KVStore:   {resource.DiskIO},
		workload.Inference: {resource.Memory, resource.CPU},
	}
	bottleneckLabel := map[workload.Archetype]string{
		workload.Web:       "cpu",
		workload.Gateway:   "netio",
		workload.KVStore:   "diskio",
		workload.Inference: "memory+cpu",
	}
	policies := []Policy{
		{Name: "evolve-multi", Factory: core.Factory(core.DefaultConfig())},
		{Name: "pid-cpu-only", Factory: core.SingleResourceFactory()},
	}
	var jobs []RunJob
	type rowMeta struct {
		archetype workload.Archetype
		target    float64
	}
	var meta []rowMeta
	for _, a := range workload.Archetypes() {
		base := 200.0
		if a == workload.Inference {
			base = 30
		}
		// Isolate the bottleneck: non-bottleneck dimensions start sized
		// for 4x the base rate (they never bind), the bottleneck for 1x.
		// The CPU-only PID then succeeds exactly when CPU is the
		// bottleneck — the contrast the ablation is after.
		spec := workload.Service(a, "svc", base, 2)
		generous := spec.Model.DemandFor(base*4, 2, 0.7).Max(spec.MinAlloc)
		tight := spec.InitialAlloc
		alloc := generous
		for _, k := range bottleneck[a] {
			alloc = alloc.With(k, tight.Get(k))
		}
		spec.InitialAlloc = alloc.Min(spec.MaxAlloc)
		sc := Scenario{
			Name:            "ablation-" + a.String(),
			Seed:            seed,
			Nodes:           5,
			NodeCapacity:    world.DefaultNodeShape(),
			Duration:        50 * time.Minute,
			Warmup:          5 * time.Minute,
			ControlInterval: 15 * time.Second,
			Apps: []AppLoad{{
				Spec:    spec,
				Pattern: workload.Step{Before: base, After: base * 2.5, At: 10 * time.Minute},
			}},
		}
		for _, pol := range policies {
			jobs = append(jobs, RunJob{Scenario: sc, Policy: pol})
			meta = append(meta, rowMeta{a, sc.Apps[0].Spec.PLO.Target})
		}
	}
	runs, err := r.RunMany(jobs)
	if err != nil {
		return nil, fmt.Errorf("table2 %w", err)
	}
	for i, res := range runs {
		ar := res.Apps[0]
		a := meta[i].archetype
		t.AddRow(a.String(), bottleneckLabel[a], res.Policy,
			ar.ViolationFraction*100, ar.MeanSLI/meta[i].target)
	}
	return t, nil
}

// Table3 compares scheduler policies and HPC queue disciplines on the
// converged mix: packing quality, queueing and disruption metrics.
func Table3(r *Runner, seed int64) (*Table, error) {
	r = ensureRunner(r)
	t := &Table{
		ID:      "Table 3",
		Title:   "Placement & queueing on the converged mix (EVOLVE controller throughout)",
		Headers: []string{"sched policy", "hpc queue", "cpu alloc frac", "hpc wait (s)", "hpc done", "batch done", "preemptions", "migrations"},
		Notes: []string{
			"spread = Kubernetes-like least-allocated scoring; binpack = most-allocated",
			"hpc wait = mean queue time of completed rigid jobs",
			"easy = backfill with a head reservation (no starvation of wide jobs)",
		},
	}
	type combo struct {
		name  string
		queue hpc.Policy
	}
	var jobs []RunJob
	var combos []combo
	for _, sp := range []struct {
		name   string
		policy sched.Policy
	}{{"spread", sched.PolicySpread}, {"binpack", sched.PolicyBinPack}} {
		for _, qp := range []hpc.Policy{hpc.FCFS, hpc.Backfill, hpc.EASY} {
			sc := BuildScenario(MixConverged, seed)
			sc.SchedulerPolicy = sp.policy
			sc.HPCPolicy = qp
			jobs = append(jobs, RunJob{Scenario: sc, Policy: Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())}})
			combos = append(combos, combo{sp.name, qp})
		}
	}
	runs, err := r.RunMany(jobs)
	if err != nil {
		return nil, fmt.Errorf("table3 %w", err)
	}
	for i, res := range runs {
		t.AddRow(combos[i].name, combos[i].queue.String(),
			res.AllocFraction[resource.CPU],
			res.HPCMeanWait.Seconds(), res.HPCCompleted,
			res.BatchCompleted, res.Preemptions, res.Migrations)
	}
	return t, nil
}
