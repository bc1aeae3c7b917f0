package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"evolve/internal/control"
	"evolve/internal/resource"
	"evolve/internal/sim"
)

// checkInvariants asserts the accounting laws that must hold after any
// sequence of operations:
//  1. node.Allocated equals the sum of its hosted pods' requests,
//  2. node.Allocated never exceeds node.Allocatable,
//  3. no running pod sits on an unready or unknown node,
//  4. every pod in the map is also in the registry and vice versa,
//  5. Cluster.CheckInvariants holds before and after Pods() materialises
//     per-pod usage: the dense tick state matches the object graph.
func checkInvariants(t *testing.T, c *Cluster, step int) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	defer func() {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("step %d (usage materialised): %v", step, err)
		}
	}()
	sum := make(map[string]resource.Vector)
	for _, p := range c.Pods() {
		switch p.Phase {
		case Running:
			n, ok := c.nodes[p.Node]
			if !ok {
				t.Fatalf("step %d: pod %s on unknown node %q", step, p.Name, p.Node)
			}
			if !n.Ready {
				t.Fatalf("step %d: pod %s on unready node %s", step, p.Name, p.Node)
			}
			sum[p.Node] = sum[p.Node].Add(p.Requests)
		case Pending:
			if p.Node != "" {
				t.Fatalf("step %d: pending pod %s claims node %q", step, p.Name, p.Node)
			}
		}
	}
	for name, n := range c.nodes {
		want := sum[name]
		for _, k := range resource.Kinds() {
			tol := 1e-9 * (1 + want[k]) // relative: sums accumulate ULPs
			if diff := n.Allocated[k] - want[k]; diff > tol || diff < -tol {
				t.Fatalf("step %d: node %s allocated[%v] = %v, pods sum to %v",
					step, name, k, n.Allocated[k], want[k])
			}
			if n.Allocated[k] > n.Allocatable[k]*(1+1e-9) {
				t.Fatalf("step %d: node %s over-allocated on %v: %v > %v",
					step, name, k, n.Allocated[k], n.Allocatable[k])
			}
		}
	}
}

// TestInvariantsUnderRandomOperations drives the cluster through long
// random sequences of every mutating operation — decisions, task
// submissions, gangs, node failures/restores, kills — and checks the
// accounting invariants after each step. Three seeds, several hundred
// operations each.
func TestInvariantsUnderRandomOperations(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			eng := sim.NewEngine(seed)
			rng := sim.NewRNG(seed + 100)
			cfg := DefaultConfig()
			c := New(eng, cfg)
			if err := c.AddNodes("n", 4, resource.New(16000, 64<<30, 1e9, 2e9)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				spec := testService(fmt.Sprintf("svc%d", i))
				if err := c.CreateService(spec); err != nil {
					t.Fatal(err)
				}
				if err := c.SetLoadFunc(spec.Name, func(time.Duration) float64 { return 100 }); err != nil {
					t.Fatal(err)
				}
			}
			c.Start()

			taskSeq := 0
			for step := 0; step < 400; step++ {
				switch rng.Intn(8) {
				case 0, 1: // random decision on a random service
					app := fmt.Sprintf("svc%d", rng.Intn(3))
					d := control.Decision{
						Replicas: 1 + rng.Intn(5),
						Alloc: resource.New(
							rng.Uniform(100, 6000),
							rng.Uniform(128<<20, 8<<30),
							rng.Uniform(1e6, 100e6),
							rng.Uniform(1e6, 100e6),
						),
					}
					if err := c.ApplyDecision(app, d); err != nil {
						t.Fatal(err)
					}
				case 2: // submit a task
					taskSeq++
					task := testTask(fmt.Sprintf("task%d", taskSeq), 1000+float64(rng.Intn(4000)), 20000)
					if err := c.SubmitTask(task); err != nil {
						t.Fatal(err)
					}
				case 3: // try a gang (may legitimately fail to fit)
					taskSeq++
					var gang []TaskSpec
					for r := 0; r < 2+rng.Intn(3); r++ {
						gang = append(gang, testTask(fmt.Sprintf("gang%d-%d", taskSeq, r), 4000, 40000))
					}
					_ = c.SubmitGang(gang)
				case 4: // fail a random node
					_ = c.FailNode(fmt.Sprintf("n-%d", rng.Intn(4)))
				case 5: // restore a random node
					_ = c.RestoreNode(fmt.Sprintf("n-%d", rng.Intn(4)))
				case 6: // kill a random task if any exists
					for _, p := range c.Pods() {
						if p.IsTask() {
							_ = c.KillTask(p.Name)
							break
						}
					}
				case 7: // let time pass (ticks, completions)
					eng.Run(eng.Now() + time.Duration(1+rng.Intn(30))*time.Second)
				}
				checkInvariants(t, c, step)
			}
			// Ensure at least one node is up, then drain: time passes,
			// tasks finish, and the invariants must still hold.
			_ = c.RestoreNode("n-0")
			eng.Run(eng.Now() + time.Hour)
			checkInvariants(t, c, 401)
		})
	}
}

// TestFailScheduleRestoreChurn hammers the fail→schedule→restore cycle:
// a node dies, its replicas re-place the same tick, the node returns, a
// decision rebalances — hundreds of times, with the invariants checked
// at every stage. This is the regression net for the snapshot-drain and
// bind-fault paths.
func TestFailScheduleRestoreChurn(t *testing.T) {
	eng := sim.NewEngine(11)
	cfg := DefaultConfig()
	cfg.MeasurementNoise = 0
	c := New(eng, cfg)
	if err := c.AddNodes("n", 3, resource.New(16000, 64<<30, 1e9, 2e9)); err != nil {
		t.Fatal(err)
	}
	spec := testService("web")
	spec.InitialReplicas = 4
	if err := c.CreateService(spec); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoadFunc("web", func(time.Duration) float64 { return 100 }); err != nil {
		t.Fatal(err)
	}
	c.Start()
	eng.Run(10 * time.Second)

	rng := sim.NewRNG(12)
	for round := 0; round < 200; round++ {
		victim := fmt.Sprintf("n-%d", rng.Intn(3))
		if err := c.FailNode(victim); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, c, round*10)
		// Same-tick reschedule: the dead node must never be picked.
		c.SchedulePendingNow()
		for _, p := range c.Pods() {
			if p.Phase == Running && p.Node == victim {
				t.Fatalf("round %d: pod %s re-bound to failed node %s", round, p.Name, victim)
			}
		}
		checkInvariants(t, c, round*10+1)
		if err := c.RestoreNode(victim); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, c, round*10+2)
		if round%3 == 0 {
			d := control.Decision{
				Replicas: 2 + rng.Intn(5),
				Alloc:    resource.New(rng.Uniform(500, 4000), 1<<30, 10e6, 10e6),
			}
			if err := c.ApplyDecision("web", d); err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, c, round*10+3)
		}
		eng.Run(eng.Now() + time.Duration(1+rng.Intn(10))*time.Second)
		checkInvariants(t, c, round*10+4)
	}
	// No replica may have leaked: desired vs live pods reconcile.
	app, err := c.App("web")
	if err != nil {
		t.Fatal(err)
	}
	if live := len(c.appPods("web")); live != app.DesiredReplicas {
		t.Errorf("live replicas %d != desired %d after churn", live, app.DesiredReplicas)
	}
}

// TestEvictPreemptUnderNodeFailure drives randomized fault sequences
// against a mixed workload where a high-priority service preempts
// low-priority tasks, while nodes keep failing and recovering. Every
// step re-checks the accounting invariants; preemption against a
// half-dead topology is where stale-snapshot bugs live.
func TestEvictPreemptUnderNodeFailure(t *testing.T) {
	for seed := int64(21); seed <= 23; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			eng := sim.NewEngine(seed)
			rng := sim.NewRNG(seed + 7)
			cfg := DefaultConfig()
			c := New(eng, cfg)
			// Small nodes: preemption pressure is constant.
			if err := c.AddNodes("n", 3, resource.New(8000, 32<<30, 1e9, 2e9)); err != nil {
				t.Fatal(err)
			}
			hi := testService("critical")
			hi.Priority = 1000
			if err := c.CreateService(hi); err != nil {
				t.Fatal(err)
			}
			if err := c.SetLoadFunc("critical", func(time.Duration) float64 { return 150 }); err != nil {
				t.Fatal(err)
			}
			c.Start()

			taskSeq := 0
			for step := 0; step < 300; step++ {
				switch rng.Intn(6) {
				case 0: // flood low-priority tasks to fill nodes
					for i := 0; i < 3; i++ {
						taskSeq++
						task := testTask(fmt.Sprintf("filler%d", taskSeq), 3000, 60000)
						task.Priority = 0
						if err := c.SubmitTask(task); err != nil {
							t.Fatal(err)
						}
					}
				case 1: // scale the critical service: forces preemption
					d := control.Decision{
						Replicas: 2 + rng.Intn(6),
						Alloc:    resource.New(rng.Uniform(1000, 4000), 2<<30, 10e6, 10e6),
					}
					if err := c.ApplyDecision("critical", d); err != nil {
						t.Fatal(err)
					}
				case 2: // node failure mid-flight
					_ = c.FailNode(fmt.Sprintf("n-%d", rng.Intn(3)))
				case 3: // sometimes a second concurrent failure
					_ = c.FailNode(fmt.Sprintf("n-%d", rng.Intn(3)))
					if rng.Intn(2) == 0 {
						_ = c.RestoreNode(fmt.Sprintf("n-%d", rng.Intn(3)))
					}
				case 4: // recovery
					_ = c.RestoreNode(fmt.Sprintf("n-%d", rng.Intn(3)))
				case 5: // time passes; ticks schedule and preempt
					eng.Run(eng.Now() + time.Duration(1+rng.Intn(20))*time.Second)
				}
				checkInvariants(t, c, step)
			}
			for i := 0; i < 3; i++ {
				_ = c.RestoreNode(fmt.Sprintf("n-%d", i))
			}
			eng.Run(eng.Now() + time.Hour)
			checkInvariants(t, c, 301)
		})
	}
}

// TestObservationInvariants checks observation sanity over a live run:
// utilisation non-negative, ready <= desired replicas, interval sums to
// elapsed time.
func TestObservationInvariants(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.CreateService(testService("web")); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoadFunc("web", func(now time.Duration) float64 {
		return 100 + 100*now.Hours()
	}); err != nil {
		t.Fatal(err)
	}
	c.Start()
	var total time.Duration
	for i := 0; i < 20; i++ {
		c.Engine().Run(c.Engine().Now() + 15*time.Second)
		obs, err := c.Observe("web")
		if err != nil {
			t.Fatal(err)
		}
		total += obs.Interval
		if obs.ReadyReplicas > obs.Replicas {
			t.Fatalf("ready %d > desired %d", obs.ReadyReplicas, obs.Replicas)
		}
		if !obs.Usage.NonNegative() || !obs.Utilisation.NonNegative() {
			t.Fatalf("negative usage/util: %v %v", obs.Usage, obs.Utilisation)
		}
		if obs.OfferedLoad < 0 || obs.Throughput < 0 {
			t.Fatalf("negative rates: %v %v", obs.OfferedLoad, obs.Throughput)
		}
	}
	if total != 20*15*time.Second {
		t.Errorf("intervals sum to %v", total)
	}
}

// TestCheckInvariantsCatchesCorruption plants one wrong value in each
// dense cache of a warm cluster and demands that CheckInvariants both
// fails and names the corrupted cache. Without these cases a checker
// that compared nothing would pass every soak.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	warm := func(t *testing.T) *Cluster {
		t.Helper()
		c := newTestCluster(t, 2)
		c.cfg.Interference = true
		for _, name := range []string{"api", "web"} {
			spec := testService(name)
			spec.InitialReplicas = 3
			if err := c.CreateService(spec); err != nil {
				t.Fatal(err)
			}
			if err := c.SetLoadFunc(name, func(time.Duration) float64 { return 400 }); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.SubmitTask(testTask("batch-0", 2000, 1e9)); err != nil {
			t.Fatal(err)
		}
		c.Start()
		c.Engine().Run(4 * c.cfg.MetricsInterval)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("warm cluster already inconsistent: %v", err)
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		corrupt func(c *Cluster)
		want    string
	}{
		{"rc.alloc", func(c *Cluster) {
			rc := &c.apps["web"].rc
			if !rc.ok || rc.ready == 0 {
				t.Fatal("web run cache not live")
			}
			rc.alloc[resource.CPU] += 1
		}, "rc.alloc"},
		{"pc.entries", func(c *Cluster) {
			pc := &c.nodes["node-0"].pc
			if !pc.ok || len(pc.entries) == 0 {
				t.Fatal("node-0 pod cache not live")
			}
			pc.entries = pc.entries[1:]
		}, "pc.entries"},
		{"hot.slow", func(c *Cluster) {
			c.hot.slow[c.nodes["node-1"].slot] = 1.25
		}, "hot.slow"},
		{"node Usage", func(c *Cluster) {
			n := c.nodes["node-1"]
			if !n.pc.ok {
				t.Fatal("node-1 pod cache not live")
			}
			n.Usage[resource.Memory] *= 2
		}, "Usage"},
		{"pod version", func(c *Cluster) {
			c.pods["batch-0"].ResourceVersion = c.version + 1
		}, "version"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := warm(t)
			tc.corrupt(c)
			err := c.CheckInvariants()
			if err == nil {
				t.Fatalf("corrupted %s passed CheckInvariants", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}
}
