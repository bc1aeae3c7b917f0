package harness

import (
	"fmt"
	"time"

	"evolve/internal/baseline"
	"evolve/internal/cluster"
	"evolve/internal/control"
	"evolve/internal/core"
	"evolve/internal/hpc"
	"evolve/internal/metrics"
	"evolve/internal/resource"
	"evolve/internal/sched"
	"evolve/internal/workload"
	"evolve/internal/world"
)

// hpaPolicy is the standard HPA factory used in extension figures.
func hpaPolicy() control.Factory {
	return baseline.HPAFactory(baseline.DefaultHPAConfig())
}

// Table5 prices the headline comparison: what each policy's allocations
// would bill at cloud rates and draw in energy over the cloud mix, plus
// the consolidation effect of binpack scheduling on the converged mix.
// The point the numbers make: PLO compliance and a lower bill are not a
// trade-off once allocations track demand.
func Table5(r *Runner, seed int64) (*Table, error) {
	r = ensureRunner(r)
	t := &Table{
		ID:      "Table 5",
		Title:   "Cost and energy of the policies (2h cloud mix; cloud on-demand rates, linear server power)",
		Headers: []string{"policy", "violations %", "bill ($)", "energy (Wh)", "$ vs evolve"},
		Notes: []string{
			"bill prices *allocations* (reservations bill whether used or not); energy follows *usage* plus idle node floor",
			"static-3x buys compliance with a ~60% higher bill; evolve gets compliance at the lowest bill",
		},
	}
	sc := BuildScenario(MixCloud, seed)
	std := StandardPolicies()
	var jobs []RunJob
	for _, pol := range std {
		jobs = append(jobs, RunJob{Scenario: sc, Policy: pol})
	}
	// Consolidation coda: binpack vs spread energy on the converged mix.
	consolidation := []struct {
		name   string
		policy sched.Policy
	}{{"evolve+spread", sched.PolicySpread}, {"evolve+binpack", sched.PolicyBinPack}}
	for _, sp := range consolidation {
		scc := BuildScenario(MixConverged, seed)
		scc.SchedulerPolicy = sp.policy
		jobs = append(jobs, RunJob{Scenario: scc, Policy: Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())}})
	}
	runs, err := r.RunMany(jobs)
	if err != nil {
		return nil, fmt.Errorf("table5 %w", err)
	}
	var evolveBill float64
	for i, res := range runs[:len(std)] {
		if std[i].Name == "evolve" {
			evolveBill = res.Dollars
		}
	}
	for _, res := range runs[:len(std)] {
		rel := "1.00x"
		if evolveBill > 0 {
			rel = fmt.Sprintf("%.2fx", res.Dollars/evolveBill)
		}
		t.AddRow(res.Policy, res.OverallViolation()*100, res.Dollars, res.WattHour, rel)
	}
	for i, res := range runs[len(std):] {
		t.AddRow(consolidation[i].name+" (converged)", res.OverallViolation()*100, res.Dollars, res.WattHour, "-")
	}
	return t, nil
}

// Figure8 injects a node failure at the diurnal peak and shows the
// recovery: ready replicas dip as the victim's pods return to the pending
// queue, the scheduler re-places them, and the controller absorbs the
// transient — the fault-tolerance picture a production autoscaler paper
// needs.
func Figure8(r *Runner, seed int64) (*Figure, error) {
	r = ensureRunner(r)
	f := &Figure{
		ID:      "Figure 8",
		Title:   "Node failure at peak load (t=30min, restored t=45min; EVOLVE)",
		XLabel:  "minutes",
		Columns: []string{"web latency (ms)", "web ready replicas", "cluster pending pods"},
	}
	sc := Scenario{
		Name: "failure", Seed: seed, Nodes: 4, NodeCapacity: world.DefaultNodeShape(),
		Duration: 70 * time.Minute, Warmup: 5 * time.Minute,
		ControlInterval: 15 * time.Second,
		Apps: []AppLoad{{
			Spec:    workload.Service(workload.Web, "web", 600, 3),
			Pattern: workload.Constant(1500), // steady peak-level load
		}},
	}
	pol := Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())}
	res, err := r.RunWithHooks(sc, pol, []Hook{
		{At: 30 * time.Minute, Do: func(c *cluster.Cluster) {
			if err := c.FailNode("node-0"); err != nil {
				panic(err)
			}
		}},
		{At: 45 * time.Minute, Do: func(c *cluster.Cluster) {
			if err := c.RestoreNode("node-0"); err != nil {
				panic(err)
			}
		}},
	})
	if err != nil {
		return nil, err
	}
	c := res.Cluster
	lat := seriesPoints(c, "app/web/latency-mean")
	ready := seriesPoints(c, "app/web/ready")
	pending := seriesPoints(c, "cluster/pending")
	n := minLen(len(lat), len(ready), len(pending))
	for i := 0; i < n; i++ {
		if err := f.AddPoint(lat[i].At.Minutes(),
			lat[i].Value*1000, ready[i].Value, pending[i].Value); err != nil {
			return nil, err
		}
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("evictions due to the failure: %d; violations overall: %.2f%%",
			c.Metrics().Counter("evictions/node-failure").Value(), res.OverallViolation()*100),
		fmt.Sprintf("ready replicas recover %.0fs after the failure (replicas re-placed at the next tick)",
			recoveryStats(ready, 30*time.Minute).Seconds()))
	return f, nil
}

// Figure9 sweeps the replica startup delay (image pull + init + warmup)
// and compares EVOLVE against the horizontal-only HPA on a 2.5x flash
// crowd. In-place vertical resizes take effect immediately; new replicas
// take the full startup delay — so a horizontal-only policy degrades
// linearly with the delay while the vertical-first controller barely
// notices it.
func Figure9(r *Runner, seed int64) (*Figure, error) {
	r = ensureRunner(r)
	f := &Figure{
		ID:      "Figure 9",
		Title:   "Startup-delay sensitivity under a 2.5x flash crowd (violations %)",
		XLabel:  "replica startup delay (s)",
		Columns: []string{"evolve", "hpa"},
	}
	base := 300.0
	delays := []time.Duration{0, 15 * time.Second, 30 * time.Second, 60 * time.Second, 120 * time.Second, 240 * time.Second}
	var jobs []RunJob
	for _, delay := range delays {
		spec := workload.Service(workload.Web, "web", base, 2)
		spec.StartupDelay = delay
		sc := Scenario{
			Name: "startup", Seed: seed, Nodes: 8, NodeCapacity: world.DefaultNodeShape(),
			Duration: 40 * time.Minute, Warmup: 5 * time.Minute,
			ControlInterval: 15 * time.Second,
			Apps: []AppLoad{{
				Spec:    spec,
				Pattern: workload.FlashCrowd{Base: base, Spike: base * 2.5, Start: 10 * time.Minute, Length: 15 * time.Minute},
			}},
		}
		jobs = append(jobs,
			RunJob{Scenario: sc, Policy: Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())}},
			RunJob{Scenario: sc, Policy: Policy{Name: "hpa", Factory: hpaPolicy()}})
	}
	runs, err := r.RunMany(jobs)
	if err != nil {
		return nil, fmt.Errorf("figure9 %w", err)
	}
	for i, delay := range delays {
		ev, hpa := runs[2*i], runs[2*i+1]
		if err := f.AddPoint(delay.Seconds(), ev.OverallViolation()*100, hpa.OverallViolation()*100); err != nil {
			return nil, err
		}
	}
	f.Notes = append(f.Notes,
		"in-place vertical resizes are instant; each new replica waits out the startup delay",
		"the horizontal-only policy pays the delay on every flash crowd; the vertical-first controller does not")
	return f, nil
}

// Figure10 sweeps the controller's utilisation target — its single most
// consequential knob — over the cloud mix, tracing the violation-vs-
// efficiency curve. A robust design shows a wide flat region: anywhere
// between ~0.5 and ~0.8 works, with violations only exploding as the
// target approaches the saturation knee.
func Figure10(r *Runner, seed int64) (*Figure, error) {
	r = ensureRunner(r)
	f := &Figure{
		ID:      "Figure 10",
		Title:   "Controller sensitivity: utilisation target vs outcome (cloud mix)",
		XLabel:  "utilisation target",
		Columns: []string{"violations %", "usage/alloc"},
	}
	sc := BuildScenario(MixCloud, seed)
	targets := []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	jobs := make([]RunJob, len(targets))
	for i, target := range targets {
		cfg := core.DefaultConfig()
		cfg.UtilTarget = target
		jobs[i] = RunJob{Scenario: sc, Policy: Policy{Name: fmt.Sprintf("evolve-u%.1f", target), Factory: core.Factory(cfg)}}
	}
	runs, err := r.RunMany(jobs)
	if err != nil {
		return nil, fmt.Errorf("figure10 %w", err)
	}
	for i, target := range targets {
		res := runs[i]
		if err := f.AddPoint(target, res.OverallViolation()*100, res.UsageOfAlloc); err != nil {
			return nil, err
		}
	}
	f.Notes = append(f.Notes,
		"usage/alloc rises with the target by construction; violations stay low until the target nears the service curve's knee",
		"the default (0.7) sits on the flat part of the violation curve")
	return f, nil
}

// Table6 is the thesis experiment: the same workload on the same 8 nodes,
// once partitioned into per-world silos (3 service + 2 batch + 3 HPC
// nodes, the pre-convergence status quo) and once fully shared with
// priorities and preemption keeping the services safe. Sharing should
// dominate on batch/HPC outcomes at equal or better service compliance —
// the "converging worlds" claim of the paper's title.
func Table6(r *Runner, seed int64) (*Table, error) {
	r = ensureRunner(r)
	t := &Table{
		ID:      "Table 6",
		Title:   "Partitioned silos vs converged sharing (same 8 nodes, same workload, EVOLVE)",
		Headers: []string{"topology", "svc violations %", "hpc wait (s)", "hpc done", "batch mean makespan (s)", "batch done", "cpu usage frac"},
		Notes: []string{
			"partitioned: services pinned to 3 nodes, batch to 2, HPC to 3 (static silos)",
			"shared: one pool; services protected by priority and preemption instead of fences",
		},
	}
	build := func(partitioned bool) Scenario {
		sc := Scenario{
			Name:            "silos",
			Seed:            seed,
			NodeCapacity:    world.DefaultNodeShape(),
			Duration:        2 * time.Hour,
			Warmup:          10 * time.Minute,
			ControlInterval: 15 * time.Second,
			Pools: []NodePool{
				{Name: "svc", Count: 3, Labels: map[string]string{"pool": "svc"}},
				{Name: "batch", Count: 2, Labels: map[string]string{"pool": "batch"}},
				{Name: "hpc", Count: 3, Labels: map[string]string{"pool": "hpc"}},
			},
			Apps:      CloudApps(seed),
			BatchJobs: BatchStream(7, 15*time.Minute, 2),
			HPCJobs:   HPCStream(24, 3*time.Minute, 6),
			HPCPolicy: hpc.Backfill,
		}
		if partitioned {
			for i := range sc.Apps {
				sc.Apps[i].Spec.NodeSelector = map[string]string{"pool": "svc"}
			}
			for i := range sc.BatchJobs {
				for j := range sc.BatchJobs[i].Job.Stages {
					sc.BatchJobs[i].Job.Stages[j].NodeSelector = map[string]string{"pool": "batch"}
				}
			}
			for i := range sc.HPCJobs {
				sc.HPCJobs[i].Job.NodeSelector = map[string]string{"pool": "hpc"}
			}
		}
		return sc
	}
	modes := []struct {
		name        string
		partitioned bool
	}{{"partitioned", true}, {"shared", false}}
	jobs := make([]RunJob, len(modes))
	for i, mode := range modes {
		jobs[i] = RunJob{Scenario: build(mode.partitioned), Policy: Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())}}
	}
	runs, err := r.RunMany(jobs)
	if err != nil {
		return nil, fmt.Errorf("table6 %w", err)
	}
	for i, res := range runs {
		t.AddRow(modes[i].name,
			res.OverallViolation()*100,
			res.HPCMeanWait.Seconds(), res.HPCCompleted,
			res.BatchMakespan.Seconds(), res.BatchCompleted,
			res.UsageFraction[resource.CPU])
	}
	return t, nil
}

// Figure11 stresses burst robustness: a web service under a Markov-
// modulated load whose high state is swept from 2x to 8x the base rate
// (mean holding times 8 min low / 2 min high). Bursty arrivals are where
// reactive controllers bleed violations; the feedforward demand model
// keeps the re-provision to one control period per burst.
func Figure11(r *Runner, seed int64) (*Figure, error) {
	r = ensureRunner(r)
	f := &Figure{
		ID:      "Figure 11",
		Title:   "Burst robustness: violations vs MMPP burst ratio (web, PLO 100ms)",
		XLabel:  "burst ratio (high/low rate)",
		Columns: []string{"evolve %", "hpa %", "static-3x %"},
	}
	base := 250.0
	ratios := []float64{2, 4, 6, 8}
	var jobs []RunJob
	for _, ratio := range ratios {
		// The three policies share one stateful MMPP pattern; its lazy
		// switch schedule is mutex-guarded and call-order independent,
		// so parallel runs stay deterministic.
		pattern := workload.NewMMPP(base, base*ratio, 8*time.Minute, 2*time.Minute, seed+int64(ratio))
		sc := Scenario{
			Name: "burst", Seed: seed, Nodes: 8, NodeCapacity: world.DefaultNodeShape(),
			Duration: 2 * time.Hour, Warmup: 10 * time.Minute,
			ControlInterval: 15 * time.Second,
			Apps: []AppLoad{{
				Spec:    workload.Service(workload.Web, "web", base, 2),
				Pattern: pattern,
			}},
		}
		for _, pol := range []Policy{
			{Name: "evolve", Factory: core.Factory(core.DefaultConfig())},
			{Name: "hpa", Factory: hpaPolicy()},
			{Name: "static-3x", Factory: baseline.StaticFactory(), Overprovision: 3},
		} {
			jobs = append(jobs, RunJob{Scenario: sc, Policy: pol})
		}
	}
	runs, err := r.RunMany(jobs)
	if err != nil {
		return nil, fmt.Errorf("figure11 %w", err)
	}
	for i, ratio := range ratios {
		if err := f.AddPoint(ratio,
			runs[3*i].OverallViolation()*100,
			runs[3*i+1].OverallViolation()*100,
			runs[3*i+2].OverallViolation()*100); err != nil {
			return nil, err
		}
	}
	f.Notes = append(f.Notes,
		"MMPP bursts: exponential holding times, 8min low / 2min high",
		"static-3x is provisioned for 3x base — it holds until the burst ratio exceeds its margin, then falls off a cliff")
	return f, nil
}

// recoveryStats extracts how long the service stayed degraded after an
// injection at the given time: the span until ready replicas return to
// their pre-failure level.
func recoveryStats(ready []metrics.Sample, failAt time.Duration) time.Duration {
	pre := 0.0
	for _, s := range ready {
		if s.At >= failAt {
			break
		}
		pre = s.Value
	}
	for _, s := range ready {
		if s.At <= failAt {
			continue
		}
		if s.Value >= pre {
			return s.At - failAt
		}
	}
	if len(ready) == 0 {
		return 0
	}
	return ready[len(ready)-1].At - failAt
}
