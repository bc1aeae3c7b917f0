package harness

import (
	"fmt"
	"time"

	"evolve/internal/baseline"
	"evolve/internal/chaos"
	"evolve/internal/core"
	"evolve/internal/workload"
	"evolve/internal/world"
)

// chaosBase is the scenario under the chaos table: one web service on a
// small cluster, long enough to contain the node-kill window (30m–45m)
// plus a recovery tail. The load climbs and falls twice over the run,
// so the controller has to keep acting — which is what makes actuation
// and sensor faults consequential: a rejected scale-up on a rising
// flank costs violations, a frozen window at a falling one wastes
// allocation.
func chaosBase(seed int64) Scenario {
	return Scenario{
		Name:            "chaos",
		Seed:            seed,
		Nodes:           4,
		NodeCapacity:    world.DefaultNodeShape(),
		Duration:        75 * time.Minute,
		Warmup:          10 * time.Minute,
		ControlInterval: 15 * time.Second,
		Apps: []AppLoad{{
			Spec:    workload.Service(workload.Web, "web", 600, 3),
			Pattern: workload.Diurnal{Trough: 500, Peak: 1800, Period: 40 * time.Minute},
		}},
	}
}

// chaosVariants are the fault plans the table sweeps: the named chaos
// profiles, a total sensor blackout (the plan that forces the loop
// through its blind → degraded → recovered cycle), and the fault-free
// reference row each ratio is computed against.
var chaosVariants = []struct {
	name, plan string
}{
	{"fault-free", ""},
	{"node-kill", "node-kill"},
	{"sensor-dropout", "sensor-dropout"},
	{"sensor-blackout", "metric-drop@30m-45m:p=1"},
	{"actuation-flake", "actuation-flake"},
	{"mixed", "mixed"},
}

// chaosPolicies: EVOLVE against the two interesting baselines — HPA
// (reactive, no degraded mode) and static-3x (open loop; immune to
// sensor faults because it never looks at a sensor).
func chaosPolicies() []Policy {
	return []Policy{
		{Name: "evolve", Factory: core.Factory(core.DefaultConfig())},
		{Name: "hpa", Factory: hpaPolicy()},
		{Name: "static-3x", Factory: baseline.StaticFactory(), Overprovision: 3.0},
	}
}

// crashInstant returns the From of the plan's first node-crash clause,
// or -1 if the plan has none.
func crashInstant(plan string) time.Duration {
	if plan == "" {
		return -1
	}
	p, err := chaos.Parse(plan)
	if err != nil {
		return -1
	}
	for _, f := range p.Faults {
		if f.Kind == chaos.NodeCrash {
			return f.From
		}
	}
	return -1
}

// Table7 is the robustness table: each chaos profile crossed with the
// policies, reporting the violation rate (and its ratio to the same
// policy's fault-free run), how long the control loop spent degraded,
// the retry/abandon traffic on the actuation path, the sensor samples
// lost, and — for profiles that kill a node — the reconvergence time of
// the ready-replica count.
func Table7(r *Runner, seed int64) (*Table, error) {
	r = ensureRunner(r)
	t := &Table{
		ID:    "Table 7",
		Title: "Robustness under injected faults (75m diurnal web service; seeded chaos profiles)",
		Headers: []string{
			"chaos", "policy", "violations %", "vs fault-free",
			"degraded periods", "retries", "samples lost", "recovery (s)",
			"sched p95 (s)", "ready p95 (s)",
		},
		Notes: []string{
			"samples lost = sensor samples dropped + frozen substitutes; ground-truth statistics are unaffected",
			"recovery = time for ready replicas to regain their pre-crash level after the node kill",
			"static-3x never reads a sensor, so metric faults cannot touch it; it pays for that immunity in Table 5",
			"sched/ready p95 = bind-time latency histograms: pending-to-bound wait and created-to-ready time (faults re-queue replicas, stretching both)",
		},
	}
	pols := chaosPolicies()
	var jobs []RunJob
	for _, v := range chaosVariants {
		sc := chaosBase(seed)
		sc.Name = "chaos-" + v.name
		sc.Chaos = v.plan
		for _, pol := range pols {
			jobs = append(jobs, RunJob{Scenario: sc, Policy: pol})
		}
	}
	runs, err := r.RunMany(jobs)
	if err != nil {
		return nil, fmt.Errorf("table7 %w", err)
	}
	faultFree := make(map[string]float64) // policy → fault-free violation
	idx := 0
	for _, v := range chaosVariants {
		failAt := crashInstant(v.plan)
		for _, pol := range pols {
			res := runs[idx]
			idx++
			viol := res.OverallViolation()
			rel := "-"
			if v.plan == "" {
				faultFree[pol.Name] = viol
			} else if base := faultFree[pol.Name]; base > 1e-9 {
				rel = fmt.Sprintf("%.2fx", viol/base)
			} else if viol <= 1e-9 {
				rel = "1.00x"
			}
			recovery := "-"
			if failAt >= 0 {
				d := recoveryStats(seriesPoints(res.Cluster, "app/web/ready"), failAt)
				recovery = fmt.Sprintf("%.0f", d.Seconds())
			}
			t.AddRow(v.name, pol.Name, viol*100, rel,
				res.DegradedPeriods, res.Retries,
				res.SamplesDropped+res.SamplesStale, recovery,
				res.SchedP95, res.ReadyP95)
		}
	}
	return t, nil
}
