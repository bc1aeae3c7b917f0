package cluster

import (
	"strings"
	"testing"
	"time"

	"evolve/internal/control"
	"evolve/internal/perf"
	"evolve/internal/plo"
	"evolve/internal/resource"
	"evolve/internal/sim"
)

func newTestCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	eng := sim.NewEngine(42)
	cfg := DefaultConfig()
	cfg.MeasurementNoise = 0 // deterministic assertions
	c := New(eng, cfg)
	if err := c.AddNodes("node", nodes, resource.New(16000, 64<<30, 1e9, 2e9)); err != nil {
		t.Fatal(err)
	}
	return c
}

func testService(name string) ServiceSpec {
	return ServiceSpec{
		Name: name,
		Model: perf.ServiceModel{
			BaseLatency:      2 * time.Millisecond,
			DemandPerOp:      resource.New(10, 0, 20e3, 50e3),
			MemFixed:         256 << 20,
			MemPerConcurrent: 4 << 20,
			MaxLatency:       30 * time.Second,
		},
		PLO:             plo.Latency(100 * time.Millisecond),
		InitialReplicas: 2,
		InitialAlloc:    resource.New(1000, 1<<30, 50e6, 50e6),
		MinAlloc:        resource.New(100, 128<<20, 1e6, 1e6),
		MaxAlloc:        resource.New(8000, 16<<30, 500e6, 500e6),
		MaxReplicas:     20,
		Priority:        100,
	}
}

func testTask(name string, cpuMilli float64, cpuWork float64) TaskSpec {
	return TaskSpec{
		Name:     name,
		Job:      "job",
		Model:    perf.TaskModel{Work: resource.New(cpuWork, 0, 0, 0), MemSet: 1 << 30},
		Requests: resource.New(cpuMilli, 2<<30, 10e6, 10e6),
	}
}

func TestAddNodeValidation(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.AddNode("node-0", resource.New(1, 1, 1, 1)); err == nil {
		t.Error("duplicate node should fail")
	}
	if err := c.AddNode("bad", resource.Vector{}); err == nil {
		t.Error("zero capacity should fail")
	}
	if err := c.AddNode("", resource.New(1, 1, 1, 1)); err == nil {
		t.Error("empty name should fail: a pod bound to it would read as pending")
	}
	if len(c.Nodes()) != 1 {
		t.Errorf("Nodes = %d", len(c.Nodes()))
	}
	cap := c.Capacity()
	if cap[resource.CPU] != 16000*0.94 {
		t.Errorf("allocatable cpu = %v, want 94%% of 16000", cap[resource.CPU])
	}
}

func TestCreateServiceAndScheduling(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.CreateService(testService("web")); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateService(testService("web")); err == nil {
		t.Error("duplicate service should fail")
	}
	pods := c.appPods("web")
	if len(pods) != 2 {
		t.Fatalf("replicas = %d, want 2", len(pods))
	}
	for _, p := range pods {
		if p.Phase != Pending {
			t.Errorf("pod %s phase = %v before scheduling", p.Name, p.Phase)
		}
	}
	c.SchedulePendingNow()
	for _, p := range c.appPods("web") {
		if p.Phase != Running || p.Node == "" {
			t.Errorf("pod %s not running after scheduling: %v on %q", p.Name, p.Phase, p.Node)
		}
	}
	// Spread policy should put the two replicas on different nodes.
	p := c.appPods("web")
	if p[0].Node == p[1].Node {
		t.Errorf("replicas colocated on %s despite spread policy", p[0].Node)
	}
	// Node accounting.
	n := c.nodes[p[0].Node]
	if n.Allocated[resource.CPU] != 1000 {
		t.Errorf("node allocated cpu = %v", n.Allocated[resource.CPU])
	}
}

func TestServiceSpecValidation(t *testing.T) {
	base := testService("x")
	cases := []func(*ServiceSpec){
		func(s *ServiceSpec) { s.Name = "" },
		func(s *ServiceSpec) { s.InitialReplicas = 0 },
		func(s *ServiceSpec) { s.InitialAlloc = resource.Vector{} },
		func(s *ServiceSpec) { s.PLO.Target = 0 },
		func(s *ServiceSpec) { s.Model.DemandPerOp[resource.CPU] = 0 },
		func(s *ServiceSpec) { s.MaxAlloc = resource.New(1, 1, 1, 1) },
	}
	for i, mutate := range cases {
		s := base
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestTickProducesTelemetry(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.CreateService(testService("web")); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoadFunc("web", func(time.Duration) float64 { return 100 }); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Engine().Run(time.Minute)

	lat := c.Metrics().Series("app/web/latency-mean")
	if lat.Len() != 12 {
		t.Errorf("latency samples = %d, want 12 (5s ticks over 60s)", lat.Len())
	}
	last, _ := lat.Last()
	if last.Value <= 0 || last.Value > 1 {
		t.Errorf("latency = %v, want small positive", last.Value)
	}
	thr := c.Metrics().Series("app/web/throughput")
	if s, _ := thr.Last(); s.Value != 100 {
		t.Errorf("throughput = %v, want offered 100", s.Value)
	}
	if c.Metrics().Series("cluster/usage/cpu").Len() == 0 {
		t.Error("missing cluster usage series")
	}
}

func TestObserveAggregatesAndResets(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.CreateService(testService("web")); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoadFunc("web", func(time.Duration) float64 { return 150 }); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Engine().Run(30 * time.Second)

	obs, err := c.Observe("web")
	if err != nil {
		t.Fatal(err)
	}
	if obs.App != "web" || obs.Replicas != 2 || obs.ReadyReplicas != 2 {
		t.Errorf("obs = %+v", obs)
	}
	if obs.OfferedLoad != 150 {
		t.Errorf("offered = %v", obs.OfferedLoad)
	}
	if obs.SLI <= 0 {
		t.Error("SLI should be positive")
	}
	if obs.Usage[resource.CPU] <= 0 || obs.Utilisation[resource.CPU] <= 0 {
		t.Errorf("usage/util = %v / %v", obs.Usage, obs.Utilisation)
	}
	if obs.Interval != 30*time.Second {
		t.Errorf("interval = %v", obs.Interval)
	}
	// Second observe with no new ticks: empty window.
	obs2, _ := c.Observe("web")
	if obs2.SLI != 0 || obs2.Interval != 0 {
		t.Errorf("window not reset: %+v", obs2)
	}
	if _, err := c.Observe("nope"); err == nil {
		t.Error("unknown app should fail")
	}
}

func TestApplyDecisionHorizontal(t *testing.T) {
	c := newTestCluster(t, 4)
	if err := c.CreateService(testService("web")); err != nil {
		t.Fatal(err)
	}
	c.SchedulePendingNow()
	alloc := resource.New(1000, 1<<30, 50e6, 50e6)
	if err := c.ApplyDecision("web", control.Decision{Replicas: 5, Alloc: alloc}); err != nil {
		t.Fatal(err)
	}
	c.SchedulePendingNow()
	pods := c.appPods("web")
	if len(pods) != 5 {
		t.Fatalf("replicas = %d, want 5", len(pods))
	}
	// Scale down to 1: newest deleted first, oldest survives.
	oldest := pods[0].Name
	if err := c.ApplyDecision("web", control.Decision{Replicas: 1, Alloc: alloc}); err != nil {
		t.Fatal(err)
	}
	pods = c.appPods("web")
	if len(pods) != 1 || pods[0].Name != oldest {
		t.Errorf("survivor = %v, want %s", pods, oldest)
	}
	// Node accounting consistent: sum of allocated equals pod requests.
	var total resource.Vector
	for _, n := range c.Nodes() {
		total = total.Add(n.Allocated)
	}
	if total[resource.CPU] != 1000 {
		t.Errorf("cluster allocated cpu = %v, want 1000", total[resource.CPU])
	}
}

func TestApplyDecisionVerticalInPlace(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.CreateService(testService("web")); err != nil {
		t.Fatal(err)
	}
	c.SchedulePendingNow()
	bigger := resource.New(4000, 8<<30, 100e6, 100e6)
	if err := c.ApplyDecision("web", control.Decision{Replicas: 2, Alloc: bigger}); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.appPods("web") {
		if p.Requests[resource.CPU] != 4000 {
			t.Errorf("pod %s cpu = %v after resize", p.Name, p.Requests[resource.CPU])
		}
		if p.Phase != Running {
			t.Errorf("in-place resize should not restart pod: %v", p.Phase)
		}
	}
	if err := c.ApplyDecision("web", control.Decision{Replicas: 1, Alloc: resource.Vector{}}); err == nil {
		t.Error("zero alloc decision should fail")
	}
	if err := c.ApplyDecision("nope", control.Decision{Replicas: 1, Alloc: bigger}); err == nil {
		t.Error("unknown app should fail")
	}
}

func TestResizeThrottledByHeadroomThenMigrates(t *testing.T) {
	c := newTestCluster(t, 1) // single 16-core node
	spec := testService("web")
	spec.InitialReplicas = 1
	if err := c.CreateService(spec); err != nil {
		t.Fatal(err)
	}
	// A fat neighbour takes most of the node.
	if err := c.SubmitTask(testTask("fat", 12000, 1e9)); err != nil {
		t.Fatal(err)
	}
	c.SchedulePendingNow()

	// Ask for more CPU than the remaining headroom.
	want := resource.New(8000, 1<<30, 50e6, 50e6)
	if err := c.ApplyDecision("web", control.Decision{Replicas: 1, Alloc: want}); err != nil {
		t.Fatal(err)
	}
	p := c.appPods("web")[0]
	if p.Requests[resource.CPU] >= 8000 {
		t.Errorf("grant = %v, should be throttled below 8000", p.Requests[resource.CPU])
	}
	if c.Metrics().Counter("resize/throttled").Value() == 0 {
		t.Error("throttle not counted")
	}
	// Second throttled decision triggers migration (delete + pending).
	if err := c.ApplyDecision("web", control.Decision{Replicas: 1, Alloc: want}); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().Counter("resize/migrations").Value() == 0 {
		t.Error("expected a migration after persistent throttling")
	}
	pods := c.appPods("web")
	if len(pods) != 1 || pods[0].Phase != Pending {
		t.Errorf("migrated replica should be pending: %+v", pods)
	}
}

func TestTaskLifecycle(t *testing.T) {
	c := newTestCluster(t, 1)
	doneName := ""
	doneFailed := true
	task := testTask("t1", 2000, 60000) // 60000 mc·s at 2000m = 30s
	task.OnDone = func(name string, failed bool) { doneName, doneFailed = name, failed }
	if err := c.SubmitTask(task); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitTask(task); err == nil {
		t.Error("duplicate task should fail")
	}
	c.Start()
	c.Engine().Run(10 * time.Second)
	if p, ok := c.pods["t1"]; !ok || p.Phase != Running {
		t.Fatalf("task should be running: %+v", c.pods["t1"])
	}
	c.Engine().Run(40 * time.Second)
	if _, ok := c.pods["t1"]; ok {
		t.Error("completed task should be gone")
	}
	if doneName != "t1" || doneFailed {
		t.Errorf("OnDone = %q, failed=%v", doneName, doneFailed)
	}
	if c.Metrics().Counter("tasks/completed").Value() != 1 {
		t.Error("completion not counted")
	}
	// Node freed.
	if !c.nodes["node-0"].Allocated.IsZero() {
		t.Errorf("node allocation not released: %v", c.nodes["node-0"].Allocated)
	}
}

func TestTaskValidation(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.SubmitTask(TaskSpec{}); err == nil {
		t.Error("empty task should fail")
	}
	if err := c.SubmitTask(TaskSpec{Name: "x"}); err == nil {
		t.Error("zero requests should fail")
	}
}

func TestGangAllOrNothing(t *testing.T) {
	c := newTestCluster(t, 2) // 2 nodes x 15040m allocatable
	var gang []TaskSpec
	for _, n := range []string{"g-0", "g-1", "g-2", "g-3"} {
		gang = append(gang, testTask(n, 7000, 7000*10))
	}
	if err := c.SubmitGang(gang); err != nil {
		t.Fatalf("gang should fit: %v", err)
	}
	for _, name := range []string{"g-0", "g-1", "g-2", "g-3"} {
		p, ok := c.pods[name]
		if !ok || p.Phase != Running {
			t.Errorf("gang member %s not running", name)
		}
	}
	// A second identical gang cannot fit; nothing must be created.
	var gang2 []TaskSpec
	for _, n := range []string{"h-0", "h-1", "h-2", "h-3"} {
		gang2 = append(gang2, testTask(n, 7000, 7000*10))
	}
	if err := c.SubmitGang(gang2); err == nil {
		t.Fatal("second gang should not fit")
	}
	for _, n := range []string{"h-0", "h-1", "h-2", "h-3"} {
		if _, ok := c.pods[n]; ok {
			t.Errorf("failed gang leaked pod %s", n)
		}
	}
	if err := c.SubmitGang(nil); err == nil {
		t.Error("empty gang should fail")
	}
}

func TestPreemptionEvictsBatchForService(t *testing.T) {
	c := newTestCluster(t, 1)
	// Fill the node with low-priority batch work.
	for i := 0; i < 2; i++ {
		task := testTask(strings.Repeat("b", i+1), 7000, 1e8)
		if err := c.SubmitTask(task); err != nil {
			t.Fatal(err)
		}
	}
	c.SchedulePendingNow()
	// High-priority service needing room only preemption can provide.
	spec := testService("web")
	spec.InitialReplicas = 1
	spec.InitialAlloc = resource.New(4000, 8<<30, 50e6, 50e6)
	if err := c.CreateService(spec); err != nil {
		t.Fatal(err)
	}
	c.SchedulePendingNow()
	pods := c.appPods("web")
	if pods[0].Phase != Running {
		t.Fatalf("service pod should have preempted batch work: %v", pods[0].Phase)
	}
	if c.Metrics().Counter("sched/preemptions").Value() == 0 {
		t.Error("preemption not counted")
	}
	if c.Metrics().Counter("evictions/preempted").Value() == 0 {
		t.Error("eviction not counted")
	}
}

func TestNodeFailureReschedulesServicePods(t *testing.T) {
	c := newTestCluster(t, 2)
	spec := testService("web")
	if err := c.CreateService(spec); err != nil {
		t.Fatal(err)
	}
	c.SchedulePendingNow()
	victim := c.appPods("web")[0].Node
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	// The replica on the failed node is pending again.
	pending := c.PendingPods()
	if len(pending) != 1 {
		t.Fatalf("pending after failure = %d, want 1", len(pending))
	}
	c.SchedulePendingNow()
	for _, p := range c.appPods("web") {
		if p.Phase != Running {
			t.Errorf("pod %s not rescheduled: %v", p.Name, p.Phase)
		}
		if p.Node == victim {
			t.Errorf("pod rescheduled onto failed node")
		}
	}
	if err := c.FailNode("nope"); err == nil {
		t.Error("unknown node should fail")
	}
	// Restore makes it usable again.
	if err := c.RestoreNode(victim); err != nil {
		t.Fatal(err)
	}
	if !c.nodes[victim].Ready {
		t.Error("node not restored")
	}
}

func TestNodeFailureFailsTasksAndNotifies(t *testing.T) {
	c := newTestCluster(t, 1)
	failed := false
	task := testTask("t1", 2000, 1e8)
	task.OnDone = func(name string, f bool) { failed = f }
	if err := c.SubmitTask(task); err != nil {
		t.Fatal(err)
	}
	c.SchedulePendingNow()
	if err := c.FailNode("node-0"); err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Error("task OnDone(failed=true) not invoked")
	}
	if _, ok := c.pods["t1"]; ok {
		t.Error("failed task should be removed")
	}
	// The armed completion event must not fire for the dead task.
	c.Engine().Run(24 * time.Hour)
}

func TestUtilisationSummary(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.CreateService(testService("web")); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoadFunc("web", func(time.Duration) float64 { return 100 }); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Engine().Run(2 * time.Minute)
	allocFrac, usageFrac := c.UtilisationSummary(0, 2*time.Minute)
	if allocFrac[resource.CPU] <= 0 || allocFrac[resource.CPU] > 1 {
		t.Errorf("alloc frac = %v", allocFrac[resource.CPU])
	}
	if usageFrac[resource.CPU] <= 0 || usageFrac[resource.CPU] > allocFrac[resource.CPU] {
		t.Errorf("usage frac = %v vs alloc %v", usageFrac[resource.CPU], allocFrac[resource.CPU])
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() float64 {
		eng := sim.NewEngine(7)
		c := New(eng, DefaultConfig()) // noise on: exercises RNG determinism
		if err := c.AddNodes("n", 3, resource.New(16000, 64<<30, 1e9, 2e9)); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateService(testService("web")); err != nil {
			t.Fatal(err)
		}
		if err := c.SetLoadFunc("web", func(now time.Duration) float64 {
			return 100 + 50*now.Seconds()/60
		}); err != nil {
			t.Fatal(err)
		}
		c.Start()
		eng.Run(5 * time.Minute)
		st := c.Metrics().Series("app/web/latency-mean").AllStats()
		return st.Mean
	}
	if a, b := run(), run(); a != b {
		t.Errorf("replay diverged: %v vs %v", a, b)
	}
}

func TestStartupDelayGatesServing(t *testing.T) {
	c := newTestCluster(t, 2)
	spec := testService("web")
	spec.StartupDelay = 30 * time.Second
	if err := c.CreateService(spec); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoadFunc("web", func(time.Duration) float64 { return 50 }); err != nil {
		t.Fatal(err)
	}
	c.Start()
	// First tick (5s): pods bind but are still starting — outage-level
	// latency, zero ready.
	c.Engine().Run(6 * time.Second)
	obs, err := c.Observe("web")
	if err != nil {
		t.Fatal(err)
	}
	if obs.ReadyReplicas != 0 {
		t.Errorf("ready = %d during startup, want 0", obs.ReadyReplicas)
	}
	// After the delay they serve.
	c.Engine().Run(time.Minute)
	obs, err = c.Observe("web")
	if err != nil {
		t.Fatal(err)
	}
	if obs.ReadyReplicas != 2 {
		t.Errorf("ready = %d after startup, want 2", obs.ReadyReplicas)
	}
	// The observation window mixes startup-outage ticks with healthy
	// ones; the latest sample must be healthy.
	if last, ok := c.Metrics().Series("app/web/sli").Last(); !ok || last.Value >= 1 {
		t.Errorf("latest SLI = %+v, want healthy", last)
	}
	// Negative delay rejected.
	bad := testService("bad")
	bad.StartupDelay = -time.Second
	if err := bad.Validate(); err == nil {
		t.Error("negative startup delay should fail validation")
	}
}

func TestOutageWhenNoReplicas(t *testing.T) {
	c := newTestCluster(t, 1)
	spec := testService("web")
	spec.InitialReplicas = 1
	spec.InitialAlloc = resource.New(100000, 1<<30, 1e6, 1e6) // cannot fit anywhere
	if err := c.CreateService(spec); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoadFunc("web", func(time.Duration) float64 { return 10 }); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Engine().Run(10 * time.Second)
	s, ok := c.Metrics().Series("app/web/latency-mean").Last()
	if !ok || s.Value != spec.Model.MaxLatency.Seconds() {
		t.Errorf("outage latency = %v, want cap", s.Value)
	}
	if v, _ := c.Metrics().Series("app/web/throughput").Last(); v.Value != 0 {
		t.Errorf("outage throughput = %v", v.Value)
	}
	if c.Metrics().Counter("sched/unschedulable").Value() == 0 {
		t.Error("unschedulable not counted")
	}
}
