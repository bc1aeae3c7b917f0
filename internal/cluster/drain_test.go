package cluster

import (
	"fmt"
	"testing"

	"evolve/internal/resource"
	"evolve/internal/sim"
)

// TestDrainProbesPerReplica is the operation-count gate of the class
// heap: draining 16 services × 500 replicas over 2,000 nodes must probe
// about one full scan per service plus one node per bind, not every node
// for every replica (16M probes). The count is deterministic, so the
// bound holds on any machine.
func TestDrainProbesPerReplica(t *testing.T) {
	const nodes, services, replicas = 2000, 16, 500
	c := New(sim.NewEngine(1), DefaultConfig())
	if err := c.AddNodes("n", nodes, resource.New(16000, 64<<30, 1e9, 2e9)); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < services; s++ {
		spec := testService(fmt.Sprintf("svc-%02d", s))
		spec.InitialReplicas = replicas
		spec.MaxReplicas = replicas
		if err := c.CreateService(spec); err != nil {
			t.Fatal(err)
		}
	}
	c.Scheduler().ResetStats()
	c.SchedulePendingNow()
	if n := len(c.PendingPods()); n != 0 {
		t.Fatalf("%d replicas left pending", n)
	}
	st := c.Scheduler().Stats()
	if limit := uint64(2 * (services*nodes + services*replicas)); st.Probed > limit {
		t.Errorf("drain probed %d nodes, limit %d", st.Probed, limit)
	}
	if st.Reused == 0 {
		t.Error("no placement reused a class heap")
	}
	t.Logf("calls %d, reused %d, probed %d", st.Calls, st.Reused, st.Probed)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainPreemptsPodBoundInRound: a high-priority replica preempts a
// replica bound earlier in the same round, which re-queues the victim
// next to its own stale pending entry. After the round the pending queue
// must be sorted, free of duplicates, and hold exactly the Pending pods.
// A priority-ordered queue never preempts what its own round bound, so
// the round runs over a hand-ordered queue that lists the victim first.
func TestDrainPreemptsPodBoundInRound(t *testing.T) {
	c := New(sim.NewEngine(1), DefaultConfig())
	if err := c.AddNodes("n", 1, resource.New(4000, 64<<30, 1e9, 2e9)); err != nil {
		t.Fatal(err)
	}
	for _, svc := range []struct {
		name     string
		priority int
	}{{"low", 10}, {"high", 100}} {
		spec := testService(svc.name)
		spec.InitialReplicas = 1
		spec.InitialAlloc = resource.New(3000, 1<<30, 50e6, 50e6)
		spec.Priority = svc.priority
		if err := c.CreateService(spec); err != nil {
			t.Fatal(err)
		}
	}
	pending := c.PendingPods()
	if len(pending) != 2 || pending[0].App != "high" {
		t.Fatalf("pending = %v, want [high low]", pending)
	}
	high, low := pending[0], pending[1]
	c.drain([]*PodObject{low, high})

	if high.Phase != Running || low.Phase != Pending {
		t.Fatalf("after the round high is %v, low is %v; want running, pending", high.Phase, low.Phase)
	}
	if got := c.met.Counter("sched/preemptions").Value(); got != 1 {
		t.Errorf("preemptions = %v, want 1", got)
	}
	if len(c.pending) != 1 || c.pending[0] != low {
		t.Fatalf("pending queue holds %d entries, want exactly the preempted replica", len(c.pending))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The next ordinary round finds no room and leaves the queue intact.
	c.SchedulePendingNow()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(c.pending) != 1 || low.Phase != Pending {
		t.Fatalf("second round: pending %d, low %v", len(c.pending), low.Phase)
	}
}
