package cluster

import (
	"strings"
	"testing"
	"time"

	"evolve/internal/perf"
	"evolve/internal/plo"
	"evolve/internal/resource"
	"evolve/internal/sim"
)

func provisionSpec(name string, replicas int) ServiceSpec {
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
		InitialReplicas: replicas,
		InitialAlloc:    resource.New(500, 1<<30, 50e6, 50e6),
		MaxReplicas:     1 << 20,
		Priority:        100,
	}
}

// TestProvisionBulkMatchesIndexInvariants stands up a sharded topology
// in one pass and checks every incremental index against its slow
// re-derivation — the same oracle the mutation paths are tested with.
func TestProvisionBulkMatchesIndexInvariants(t *testing.T) {
	eng := sim.NewEngine(7)
	cfg := DefaultConfig()
	cfg.Shards = 4
	c := New(eng, cfg)
	err := c.ProvisionBulk(Provision{
		NodePrefix:   "bn",
		Nodes:        40,
		NodeCapacity: resource.New(16000, 64<<30, 1e9, 2e9),
		Services: []ServiceSpec{
			provisionSpec("prov-a", 60),
			provisionSpec("prov-b", 37),
			provisionSpec("prov-c", 11),
		},
	})
	if err != nil {
		t.Fatalf("ProvisionBulk: %v", err)
	}
	checkIndexes(t, c, 0)

	if got := len(c.Pods()); got != 108 {
		t.Fatalf("pods = %d, want 108", got)
	}
	if got := len(c.PendingPods()); got != 0 {
		t.Fatalf("pending = %d, want 0 (everything fits)", got)
	}
	for _, p := range c.Pods() {
		if p.Phase != Running || p.Node == "" {
			t.Fatalf("pod %s: phase=%v node=%q, want bound and Running", p.Name, p.Phase, p.Node)
		}
	}
	// Shard partitions must cover exactly the global index, in order.
	nodes, apps := 0, 0
	for _, sh := range c.shards {
		nodes += len(sh.nodes)
		apps += len(sh.apps)
		for i := 1; i < len(sh.nodes); i++ {
			if sh.nodes[i-1].Name >= sh.nodes[i].Name {
				t.Fatalf("shard node partition out of order at %s", sh.nodes[i].Name)
			}
		}
	}
	if nodes != len(c.nodeList) || apps != len(c.appList) {
		t.Fatalf("shard partitions cover %d nodes / %d apps, want %d / %d",
			nodes, apps, len(c.nodeList), len(c.appList))
	}

	// The provisioned cluster must tick and keep ticking: run a short
	// horizon and require node allocation to be visible in the summary.
	for _, st := range c.appList {
		st.loadFn = func(time.Duration) float64 { return 50 }
	}
	c.Start()
	c.Run(2 * time.Minute)
	alloc, _ := c.UtilisationSummary(0, 2*time.Minute)
	if alloc[resource.CPU] <= 0 {
		t.Fatalf("allocated CPU fraction = %v, want > 0", alloc[resource.CPU])
	}
}

// TestProvisionBulkOverflowStaysPending over-commits the fleet and
// expects the overflow replicas to queue rather than vanish.
func TestProvisionBulkOverflowStaysPending(t *testing.T) {
	eng := sim.NewEngine(7)
	c := New(eng, DefaultConfig())
	// One node fits 30 replicas of 500m within 16 cores * 0.94.
	err := c.ProvisionBulk(Provision{
		NodePrefix:   "bn",
		Nodes:        1,
		NodeCapacity: resource.New(16000, 64<<30, 1e9, 2e9),
		Services:     []ServiceSpec{provisionSpec("prov-over", 40)},
	})
	if err != nil {
		t.Fatalf("ProvisionBulk: %v", err)
	}
	checkIndexes(t, c, 0)
	if got := len(c.PendingPods()); got == 0 {
		t.Fatal("expected overflow replicas to stay pending")
	}
	if got := c.Metrics().Counter("provision/unplaced").Value(); got == 0 {
		t.Fatal("expected provision/unplaced > 0")
	}
}

// TestProvisionBulkAfterStartRefused pins the setup-time-only contract.
func TestProvisionBulkAfterStartRefused(t *testing.T) {
	eng := sim.NewEngine(7)
	c := New(eng, DefaultConfig())
	c.Start()
	if err := c.ProvisionBulk(Provision{Nodes: 1, NodePrefix: "n", NodeCapacity: resource.New(1000, 1<<30, 1e6, 1e6)}); err == nil {
		t.Fatal("ProvisionBulk after Start must fail")
	}
}

// TestProvisionBulkRefusalLeavesClusterUnchanged: a call that lists one
// service twice, or whose replica names a task already holds, is refused
// before it creates anything — no nodes, services, pods or versions are
// left behind, and the cluster provisions normally afterwards.
func TestProvisionBulkRefusalLeavesClusterUnchanged(t *testing.T) {
	capacity := resource.New(16000, 64<<30, 1e9, 2e9)
	for _, tc := range []struct {
		name string
		task string // submitted before the call
		svcs []ServiceSpec
		want string
	}{
		{"duplicate service", "", []ServiceSpec{provisionSpec("a", 1), provisionSpec("a", 1)}, "service a"},
		{"replica name taken", "b-2", []ServiceSpec{provisionSpec("a", 1), provisionSpec("b", 1)}, "pod b-2"},
	} {
		c := New(sim.NewEngine(7), DefaultConfig())
		if tc.task != "" {
			if err := c.SubmitTask(testTask(tc.task, 1000, 20000)); err != nil {
				t.Fatal(err)
			}
		}
		pods, version := len(c.pods), c.version
		err := c.ProvisionBulk(Provision{NodePrefix: "bn", Nodes: 3, NodeCapacity: capacity, Services: tc.svcs})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ProvisionBulk = %v, want an error naming %s", tc.name, err, tc.want)
			continue
		}
		if len(c.nodes) != 0 || len(c.apps) != 0 || len(c.pods) != pods || c.version != version || len(c.hot.slow) != 0 {
			t.Errorf("%s: refused call left %d nodes, %d apps, %d pods (had %d), version %d (was %d)",
				tc.name, len(c.nodes), len(c.apps), len(c.pods), pods, c.version, version)
		}
		if err := c.ProvisionBulk(Provision{NodePrefix: "bn", Nodes: 3, NodeCapacity: capacity, Services: tc.svcs[:1]}); err != nil {
			t.Errorf("%s: provisioning after the refusal: %v", tc.name, err)
		}
		checkIndexes(t, c, 0)
	}
}
