package harness

import (
	"fmt"
	"time"

	"evolve/internal/baseline"
	"evolve/internal/cluster"
	"evolve/internal/core"
	"evolve/internal/metrics"
	"evolve/internal/pid"
	"evolve/internal/resource"
	"evolve/internal/sim"
	"evolve/internal/workload"
	"evolve/internal/world"
)

// seriesPoints extracts (t, value) pairs from a cluster metric series.
func seriesPoints(c *cluster.Cluster, name string) []metrics.Sample {
	return c.Metrics().Series(name).Samples()
}

// Figure1 renders the diurnal latency time series of the web service
// under three policies: the qualitative "EVOLVE holds the PLO flat while
// baselines spike at the peaks" picture.
func Figure1(r *Runner, seed int64) (*Figure, error) {
	r = ensureRunner(r)
	f := &Figure{
		ID:      "Figure 1",
		Title:   "Web-service mean latency under a diurnal cycle (PLO 100ms)",
		XLabel:  "minutes",
		Columns: []string{"offered load (op/s)", "evolve (ms)", "hpa (ms)", "static-2x (ms)"},
	}
	sc := BuildScenario(MixCloud, seed)
	var jobs []RunJob
	keep := map[string]bool{"evolve": true, "hpa": true, "static-2x": true}
	for _, pol := range StandardPolicies() {
		if !keep[pol.Name] {
			continue
		}
		jobs = append(jobs, RunJob{Scenario: sc, Policy: pol})
	}
	runs, err := r.RunMany(jobs)
	if err != nil {
		return nil, fmt.Errorf("figure1 %w", err)
	}
	series := make(map[string][]metrics.Sample)
	var offered []metrics.Sample
	for _, res := range runs {
		series[res.Policy] = seriesPoints(res.Cluster, "app/web/latency-mean")
		if offered == nil {
			offered = seriesPoints(res.Cluster, "app/web/offered")
		}
	}
	n := len(offered)
	for _, s := range series {
		if len(s) < n {
			n = len(s)
		}
	}
	for i := 0; i < n; i++ {
		if err := f.AddPoint(offered[i].At.Minutes(),
			offered[i].Value,
			series["evolve"][i].Value*1000,
			series["hpa"][i].Value*1000,
			series["static-2x"][i].Value*1000,
		); err != nil {
			return nil, err
		}
	}
	f.Notes = append(f.Notes, "PLO bound: 100 ms mean latency; diurnal peak is 3x the sizing point")
	return f, nil
}

// Figure2 shows EVOLVE's allocation tracking: offered load against total
// CPU allocation and actual CPU usage for the web service.
func Figure2(r *Runner, seed int64) (*Figure, error) {
	r = ensureRunner(r)
	f := &Figure{
		ID:      "Figure 2",
		Title:   "Allocation tracks offered load (EVOLVE, web service)",
		XLabel:  "minutes",
		Columns: []string{"offered (op/s)", "total cpu alloc (cores)", "total cpu usage (cores)", "replicas"},
	}
	sc := BuildScenario(MixCloud, seed)
	res, err := r.Run(sc, Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())})
	if err != nil {
		return nil, err
	}
	c := res.Cluster
	offered := seriesPoints(c, "app/web/offered")
	alloc := seriesPoints(c, "app/web/alloc/cpu")
	usage := seriesPoints(c, "app/web/usage/cpu")
	reps := seriesPoints(c, "app/web/replicas")
	ready := seriesPoints(c, "app/web/ready")
	n := minLen(len(offered), len(alloc), len(usage), len(reps), len(ready))
	for i := 0; i < n; i++ {
		r := reps[i].Value
		if err := f.AddPoint(offered[i].At.Minutes(),
			offered[i].Value,
			alloc[i].Value*r/1000,
			usage[i].Value*ready[i].Value/1000,
			r,
		); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func minLen(ns ...int) int {
	m := ns[0]
	for _, n := range ns[1:] {
		if n < m {
			m = n
		}
	}
	return m
}

// StepStats summarises a step response: time to re-enter the PLO band
// and the worst normalised excursion.
type StepStats struct {
	Policy      string
	SettleAfter time.Duration // from the step until SLI stays in band
	WorstSLI    float64       // max SLI/target after the step
}

// Figure3 drives a flash-crowd step (3x) into the web service and records
// the latency trajectory for EVOLVE with and without the feedforward
// demand model, plus the HPA baseline; settling times go in the notes.
func Figure3(r *Runner, seed int64) (*Figure, []StepStats, error) {
	r = ensureRunner(r)
	f := &Figure{
		ID:      "Figure 3",
		Title:   "Step response: 3x flash crowd at t=10min (web, PLO 100ms)",
		XLabel:  "minutes",
		Columns: []string{"offered (op/s)", "evolve (ms)", "evolve-no-ff (ms)", "hpa (ms)"},
	}
	base := 300.0
	stepAt := 10 * time.Minute
	mkScenario := func() Scenario {
		return Scenario{
			Name: "step", Seed: seed, Nodes: 10, NodeCapacity: world.DefaultNodeShape(),
			Duration: 40 * time.Minute, Warmup: 5 * time.Minute,
			ControlInterval: 15 * time.Second,
			Apps: []AppLoad{{
				Spec:    workload.Service(workload.Web, "web", base, 2),
				Pattern: workload.Step{Before: base, After: base * 3, At: stepAt},
			}},
		}
	}
	noFF := core.DefaultConfig()
	noFF.Feedforward = false
	policies := []Policy{
		{Name: "evolve", Factory: core.Factory(core.DefaultConfig())},
		{Name: "evolve-no-ff", Factory: core.Factory(noFF)},
		{Name: "hpa", Factory: baseline.HPAFactory(baseline.DefaultHPAConfig())},
	}
	jobs := make([]RunJob, len(policies))
	for i, pol := range policies {
		jobs[i] = RunJob{Scenario: mkScenario(), Policy: pol}
	}
	runs, err := r.RunMany(jobs)
	if err != nil {
		return nil, nil, fmt.Errorf("figure3 %w", err)
	}
	var stats []StepStats
	var cols [][]metrics.Sample
	var offered []metrics.Sample
	target := 0.1 // 100ms
	for _, res := range runs {
		lat := seriesPoints(res.Cluster, "app/web/latency-mean")
		cols = append(cols, lat)
		if offered == nil {
			offered = seriesPoints(res.Cluster, "app/web/offered")
		}
		stats = append(stats, stepStatsFrom(res.Policy, lat, stepAt, target))
	}
	n := minLen(len(offered), len(cols[0]), len(cols[1]), len(cols[2]))
	for i := 0; i < n; i++ {
		if err := f.AddPoint(offered[i].At.Minutes(),
			offered[i].Value, cols[0][i].Value*1000, cols[1][i].Value*1000, cols[2][i].Value*1000); err != nil {
			return nil, nil, err
		}
	}
	for _, s := range stats {
		f.Notes = append(f.Notes, fmt.Sprintf("%s: settles %.0fs after the step, worst SLI %.1fx target",
			s.Policy, s.SettleAfter.Seconds(), s.WorstSLI))
	}
	return f, stats, nil
}

// stepStatsFrom computes settling time (SLI back within 1.2x target and
// staying there) and worst excursion after the step.
func stepStatsFrom(policy string, lat []metrics.Sample, stepAt time.Duration, target float64) StepStats {
	st := StepStats{Policy: policy}
	band := target * 1.2
	settled := time.Duration(-1)
	for i, s := range lat {
		if s.At < stepAt {
			continue
		}
		if s.Value/target > st.WorstSLI {
			st.WorstSLI = s.Value / target
		}
		if s.Value <= band {
			if settled < 0 {
				settled = s.At
			}
		} else {
			settled = -1
		}
		_ = i
	}
	if settled >= 0 {
		st.SettleAfter = settled - stepAt
	} else if len(lat) > 0 {
		st.SettleAfter = lat[len(lat)-1].At - stepAt // never settled
	}
	return st
}

// Figure4 contrasts adaptive and fixed PID gains at the controller level,
// on a first-order plant whose gain drifts 4x mid-run — the situation
// online tuning exists for: a loop tuned for yesterday's application
// behaviour meets today's. Setpoint steps land before and after the
// drift; the adaptive loop re-tunes, the fixed loops are either sluggish
// throughout or oscillate once the plant gain rises.
func Figure4(seed int64) (*Figure, error) {
	f := &Figure{
		ID:      "Figure 4",
		Title:   "Adaptive vs fixed PID gains under 4x plant-gain drift (controller level)",
		XLabel:  "minutes",
		Columns: []string{"setpoint", "adaptive", "fixed-sluggish", "fixed-aggressive"},
	}
	const (
		dt       = 5 * time.Second
		horizon  = 40 * time.Minute
		setLow   = 10.0
		setHigh  = 25.0
		driftAt  = 20 * time.Minute
		gainPre  = 1.0
		gainPost = 4.0
	)
	setpointAt := func(at time.Duration) float64 {
		// Steps at 5 and 25 minutes (one per plant regime).
		if (at >= 5*time.Minute && at < 15*time.Minute) || (at >= 25*time.Minute && at < 35*time.Minute) {
			return setHigh
		}
		return setLow
	}
	run := func(gains pid.Gains, adaptive bool) []float64 {
		cfg := pid.Config{Gains: gains, OutMin: 0, OutMax: 100, DerivativeTau: 10 * time.Second}
		ctrl := pid.MustController(cfg)
		var tuner *pid.Tuner
		if adaptive {
			tuner = pid.NewTuner(ctrl, pid.DefaultTunerConfig())
		}
		rng := sim.NewRNG(seed)
		y, tau := 0.0, 30.0 // first-order lag, 30s time constant
		var out []float64
		for at := time.Duration(0); at < horizon; at += dt {
			gain := gainPre
			if at >= driftAt {
				gain = gainPost
			}
			set := setpointAt(at)
			u := ctrl.Update(set, y, dt)
			if tuner != nil {
				tuner.Observe((set - y) / setHigh)
			}
			y += (u*gain - y) * dt.Seconds() / tau
			y += rng.Normal(0, 0.02)
			out = append(out, y)
		}
		return out
	}

	sluggish := pid.Gains{Kp: 0.3, Ki: 0.05, Kd: 0}
	aggressive := pid.Gains{Kp: 4, Ki: 1.0, Kd: 0}
	adaptive := run(sluggish, true) // starts equally mis-tuned, adapts
	fixedS := run(sluggish, false)
	fixedA := run(aggressive, false)
	n := minLen(len(adaptive), len(fixedS), len(fixedA))
	for i := 0; i < n; i++ {
		at := time.Duration(i) * dt
		if err := f.AddPoint(at.Minutes(), setpointAt(at), adaptive[i], fixedS[i], fixedA[i]); err != nil {
			return nil, err
		}
	}
	// Tracking-error summaries (mean |error| per plant regime).
	note := func(name string, ys []float64) string {
		var pre, post float64
		var npre, npost int
		for i, y := range ys {
			at := time.Duration(i) * dt
			e := absFloat(setpointAt(at) - y)
			if at < driftAt {
				pre += e
				npre++
			} else {
				post += e
				npost++
			}
		}
		return fmt.Sprintf("%s: mean |err| %.2f before drift, %.2f after", name, pre/float64(npre), post/float64(npost))
	}
	f.Notes = append(f.Notes,
		"plant gain quadruples at t=20min; the adaptive loop starts with the same gains as fixed-sluggish",
		note("adaptive", adaptive), note("fixed-sluggish", fixedS), note("fixed-aggressive", fixedA))
	return f, nil
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Figure5 shows the converged cluster in action: CPU usage fraction,
// allocation fraction, pending pods and the service SLI health over time
// under the EVOLVE controller.
func Figure5(r *Runner, seed int64) (*Figure, error) {
	r = ensureRunner(r)
	f := &Figure{
		ID:      "Figure 5",
		Title:   "Converged cluster timeline (cloud + big-data + HPC, EVOLVE)",
		XLabel:  "minutes",
		Columns: []string{"cpu allocated frac", "cpu used frac", "pending pods", "violating apps"},
	}
	sc := BuildScenario(MixConverged, seed)
	res, err := r.Run(sc, Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())})
	if err != nil {
		return nil, err
	}
	c := res.Cluster
	alloc := seriesPoints(c, "cluster/allocated/cpu")
	used := seriesPoints(c, "cluster/usage/cpu")
	pending := seriesPoints(c, "cluster/pending")
	viol := make(map[time.Duration]float64)
	for _, app := range c.Apps() {
		for _, s := range seriesPoints(c, "app/"+app+"/violation") {
			viol[s.At] += s.Value
		}
	}
	n := minLen(len(alloc), len(used), len(pending))
	for i := 0; i < n; i++ {
		if err := f.AddPoint(alloc[i].At.Minutes(),
			alloc[i].Value, used[i].Value, pending[i].Value, viol[alloc[i].At]); err != nil {
			return nil, err
		}
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("hpc: %d jobs completed, mean wait %.0fs; batch: %d DAGs completed, mean makespan %.0fs",
			res.HPCCompleted, res.HPCMeanWait.Seconds(), res.BatchCompleted, res.BatchMakespan.Seconds()),
		fmt.Sprintf("preemptions: %d, service violations overall: %.2f%%", res.Preemptions, res.OverallViolation()*100))
	return f, nil
}

// Figure7 sweeps the static overprovisioning factor and plots the
// violation-vs-allocation frontier, with the EVOLVE point for contrast:
// the "how much safety margin would static requests need to match the
// controller" picture.
func Figure7(r *Runner, seed int64) (*Figure, error) {
	r = ensureRunner(r)
	f := &Figure{
		ID:      "Figure 7",
		Title:   "Violations vs allocated capacity: static overprovisioning frontier",
		XLabel:  "mean cpu alloc fraction",
		Columns: []string{"violations % (static)", "violations % (evolve)"},
	}
	sc := BuildScenario(MixCloud, seed)
	jobs := []RunJob{{Scenario: sc, Policy: Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())}}}
	for _, factor := range []float64{1.0, 1.5, 2.0, 2.5, 3.0, 4.0} {
		jobs = append(jobs, RunJob{Scenario: sc, Policy: Policy{
			Name:          fmt.Sprintf("static-%.1fx", factor),
			Factory:       baseline.StaticFactory(),
			Overprovision: factor,
		}})
	}
	runs, err := r.RunMany(jobs)
	if err != nil {
		return nil, fmt.Errorf("figure7 %w", err)
	}
	evRes := runs[0]
	evViol := evRes.OverallViolation() * 100
	evAlloc := evRes.AllocFraction[resource.CPU]
	for _, res := range runs[1:] {
		if err := f.AddPoint(res.AllocFraction[resource.CPU], res.OverallViolation()*100, -1); err != nil {
			return nil, err
		}
	}
	if err := f.AddPoint(evAlloc, -1, evViol); err != nil {
		return nil, err
	}
	f.Notes = append(f.Notes,
		"-1 marks absent points (the two series occupy different x positions)",
		fmt.Sprintf("evolve: %.2f%% violations at %.3f alloc fraction", evViol, evAlloc))
	return f, nil
}

// Figure6 and Table4 measure control-plane overhead in wall-clock time;
// they live in overhead.go.
