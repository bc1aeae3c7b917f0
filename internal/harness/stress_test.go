package harness

import (
	"fmt"
	"testing"
	"time"

	"evolve/internal/cluster"
	"evolve/internal/core"
	"evolve/internal/resource"
	"evolve/internal/workload"
	"evolve/internal/world"
)

// TestStressConvergedAtScale runs a 40-node cluster with 16 diurnal
// services, a dense batch stream, a dense HPC stream and three node
// failures over four virtual hours — the "leave it running" robustness
// check. It asserts global health, not exact numbers: no runaway
// allocation, bounded violations, all jobs eventually done, and the
// whole thing simulating in sane wall-clock time.
func TestStressConvergedAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("stress run")
	}
	var apps []AppLoad
	archs := workload.Archetypes()
	for i := 0; i < 16; i++ {
		a := archs[i%len(archs)]
		base := 150.0 + 50*float64(i%4)
		if a == workload.Inference {
			base = 20
		}
		name := fmt.Sprintf("%s-%d", a.String(), i)
		apps = append(apps, AppLoad{
			Spec: workload.Service(a, name, base, 2),
			Pattern: workload.Noisy{
				Inner: workload.Diurnal{Trough: base * 0.4, Peak: base * 2.8, Period: time.Duration(90+7*i) * time.Minute},
				Frac:  0.1,
				Seed:  int64(1000 + i),
			},
		})
	}
	sc := Scenario{
		Name:            "stress",
		Seed:            99,
		Nodes:           40,
		NodeCapacity:    world.DefaultNodeShape(),
		Duration:        4 * time.Hour,
		Warmup:          15 * time.Minute,
		ControlInterval: 15 * time.Second,
		Apps:            apps,
		BatchJobs:       BatchStream(12, 18*time.Minute, 2),
		HPCJobs:         HPCStream(30, 7*time.Minute, 6),
	}
	start := time.Now()
	res, err := RunWithHooks(sc, Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())},
		[]Hook{
			{At: 50 * time.Minute, Do: func(c *cluster.Cluster) { _ = c.FailNode("node-3") }},
			{At: 70 * time.Minute, Do: func(c *cluster.Cluster) { _ = c.RestoreNode("node-3") }},
			{At: 2 * time.Hour, Do: func(c *cluster.Cluster) { _ = c.FailNode("node-17") }},
			{At: 2*time.Hour + 20*time.Minute, Do: func(c *cluster.Cluster) { _ = c.RestoreNode("node-17") }},
			{At: 3 * time.Hour, Do: func(c *cluster.Cluster) { _ = c.FailNode("node-31") }},
			{At: 3*time.Hour + 15*time.Minute, Do: func(c *cluster.Cluster) { _ = c.RestoreNode("node-31") }},
		})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	t.Logf("4 virtual hours at 40 nodes / 16 apps simulated in %v", elapsed)
	if elapsed > 30*time.Second {
		t.Errorf("stress run too slow: %v", elapsed)
	}

	// Global health.
	if v := res.OverallViolation(); v > 0.05 {
		t.Errorf("overall violations = %.3f, want < 5%% despite failures", v)
	}
	for _, a := range res.Apps {
		if a.ViolationFraction > 0.15 {
			t.Errorf("app %s violations = %.3f", a.App, a.ViolationFraction)
		}
	}
	if res.AllocFraction[resource.CPU] > 0.95 {
		t.Errorf("allocation ran away: %v", res.AllocFraction)
	}
	if res.HPCCompleted < 28 { // a couple may be mid-flight at the horizon
		t.Errorf("hpc completed = %d of 30", res.HPCCompleted)
	}
	if res.BatchCompleted < 11 {
		t.Errorf("batch completed = %d of 12", res.BatchCompleted)
	}
	// The failures really happened.
	if res.Cluster.Metrics().Counter("nodes/failures").Value() != 3 {
		t.Errorf("failures = %d, want 3", res.Cluster.Metrics().Counter("nodes/failures").Value())
	}
}
