package cluster

import (
	"strings"
	"testing"
	"time"

	"evolve/internal/chaos"
	"evolve/internal/control"
	"evolve/internal/obs"
	"evolve/internal/resource"
	"evolve/internal/sched"
	"evolve/internal/sim"
)

// TestRegistryFaultAbsorbed: replica names come from the pod sequence,
// task names from the caller, so a task can already hold the name the
// next replica gets. That creation degrades to a counted, journaled and
// traced fault instead of overwriting the task; the cluster keeps
// working and the next decision creates the replica under a fresh name.
func TestRegistryFaultAbsorbed(t *testing.T) {
	c := newTestCluster(t, 2)
	tr := obs.New(64)
	c.SetTracer(tr)
	if err := c.SubmitTask(testTask("web-3", 1000, 20000)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateService(testService("web")); err != nil { // web-1, web-2
		t.Fatal(err)
	}
	c.SchedulePendingNow()
	task := c.pods["web-3"]
	alloc := resource.New(1000, 1<<30, 5e6, 5e6)
	if err := c.ApplyDecision("web", control.Decision{Replicas: 3, Alloc: alloc}); err != nil {
		t.Fatalf("ApplyDecision into a taken name: %v", err)
	}

	if got := c.Metrics().Counter("faults/registry").Value(); got != 1 {
		t.Errorf("faults/registry = %d, want 1", got)
	}
	if c.LastTick().RegistryFaults != 1 {
		t.Errorf("LastTick().RegistryFaults = %d, want 1", c.LastTick().RegistryFaults)
	}
	if c.pods["web-3"] != task || !task.IsTask() || len(c.byApp["web"]) != 2 {
		t.Errorf("the task lost its name: pod web-3 = %+v, web has %d replicas", c.pods["web-3"], len(c.byApp["web"]))
	}
	var journal []Event
	for _, e := range c.Events() {
		if e.Kind == "registry-fault" {
			journal = append(journal, e)
		}
	}
	want := "registry write failed: registry: already exists: pod/web-3"
	if len(journal) != 1 || journal[0].Object != "pod/web-3" || journal[0].Message != want {
		t.Errorf("registry-fault journal = %v, want one line for pod/web-3 saying %q", journal, want)
	}
	evs := tr.Snapshot(obs.Filter{Kind: "fault", Verb: obs.VerbFault})
	if len(evs) != 1 || evs[0].Object != "pod/web-3" {
		t.Errorf("fault trace events = %+v, want one naming pod/web-3", evs)
	}
	// The substrate still operates: the retried decision creates the
	// missing replica under the next sequence number.
	if err := c.ApplyDecision("web", control.Decision{Replicas: 3, Alloc: alloc}); err != nil {
		t.Fatalf("ApplyDecision after the registry fault: %v", err)
	}
	if p := c.pods["web-4"]; p == nil || p.App != "web" || len(c.byApp["web"]) != 3 {
		t.Errorf("retried decision: web-4 = %+v, web has %d replicas, want 3", p, len(c.byApp["web"]))
	}
	if c.LastTick().RegistryFaults != 1 {
		t.Errorf("retried decision faulted again: RegistryFaults = %d", c.LastTick().RegistryFaults)
	}
	checkInvariants(t, c, 0)
}

// TestGangRepeatedRankRefused: a gang that names one rank twice is
// refused before anything is created — no ranks, no allocation, no
// rollback needed, invariants intact.
func TestGangRepeatedRankRefused(t *testing.T) {
	c := newTestCluster(t, 2)
	gang := []TaskSpec{
		testTask("g-0", 1000, 20000),
		testTask("g-1", 1000, 20000),
		testTask("g-0", 1000, 20000),
	}
	err := c.SubmitGang(gang)
	if err == nil || !strings.Contains(err.Error(), "g-0") {
		t.Fatalf("gang with a repeated rank name: err = %v, want one naming g-0", err)
	}
	if len(c.Pods()) != 0 {
		t.Errorf("refused gang left %d pods", len(c.Pods()))
	}
	for _, n := range c.Nodes() {
		if !n.Allocated.IsZero() {
			t.Errorf("refused gang left allocation %v on %s", n.Allocated, n.Name)
		}
	}
	if got := c.Metrics().Counter("faults/gang-rollback").Value(); got != 0 {
		t.Errorf("faults/gang-rollback = %d, want 0: the gang is refused before the commit", got)
	}
	checkInvariants(t, c, 0)
}

// downOnProbe is a filter that admits every node but, when the
// scheduler probes rank pod on node, marks that node unready in the
// cluster: the node dies between the gang decision and its bind.
type downOnProbe struct {
	c         *Cluster
	pod, node string
}

func (downOnProbe) Name() string { return "down-on-probe" }

func (f downOnProbe) Filter(pod *sched.PodInfo, node *sched.NodeInfo) sched.Reason {
	if pod.Name == f.pod && node.Name == f.node {
		f.c.nodes[f.node].Ready = false
	}
	return sched.ReasonNone
}

// TestGangRollbackOnCommitFailure: the gang fits when scheduled, but the
// second rank's node goes unready before its bind. The commit fails
// after the first rank bound, and every rank created so far is rolled
// back: no pods, no allocation, one counted and journaled rollback.
func TestGangRollbackOnCommitFailure(t *testing.T) {
	c := New(sim.NewEngine(42), DefaultConfig())
	capacity := resource.New(16000, 64<<30, 1e9, 2e9)
	for _, pool := range []string{"a", "b"} {
		if err := c.AddLabeledNode(pool, capacity, map[string]string{"pool": pool}); err != nil {
			t.Fatal(err)
		}
	}
	sch, err := sched.NewCustom(
		[]sched.FilterPlugin{sched.SelectorFilter{}, sched.FitFilter{}, downOnProbe{c: c, pod: "g-1", node: "b"}},
		[]sched.ScorePlugin{sched.LeastAllocated{W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c.sch = sch
	gang := []TaskSpec{testTask("g-0", 1000, 20000), testTask("g-1", 1000, 20000)}
	gang[0].NodeSelector = map[string]string{"pool": "a"}
	gang[1].NodeSelector = map[string]string{"pool": "b"}
	err = c.SubmitGang(gang)
	if err == nil || !strings.Contains(err.Error(), "aborted") || !strings.Contains(err.Error(), "unready node b") {
		t.Fatalf("gang whose node died before the bind: err = %v, want an abort naming node b", err)
	}
	if len(c.Pods()) != 0 {
		t.Errorf("rolled-back gang left %d pods", len(c.Pods()))
	}
	for _, n := range c.Nodes() {
		if !n.Allocated.IsZero() {
			t.Errorf("rolled-back gang left allocation %v on %s", n.Allocated, n.Name)
		}
	}
	if got := c.Metrics().Counter("faults/gang-rollback").Value(); got != 1 {
		t.Errorf("faults/gang-rollback = %d, want 1", got)
	}
	journaled := false
	for _, e := range c.Events() {
		if e.Kind == "gang-rollback" && e.Object == "job" && strings.Contains(e.Message, "2 rank(s) rolled back") {
			journaled = true
		}
	}
	if !journaled {
		t.Errorf("no gang-rollback journal line for 2 ranks in %v", c.Events())
	}
	c.nodes["b"].Ready = true
	checkInvariants(t, c, 0)
}

// chaosCluster builds a started single-service cluster with the given
// chaos plan installed.
func chaosCluster(t *testing.T, spec string) *Cluster {
	t.Helper()
	c := newTestCluster(t, 3)
	if err := c.CreateService(testService("web")); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoadFunc("web", func(time.Duration) float64 { return 200 }); err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.NewInjector(plan, 1)
	c.SetChaos(inj)
	inj.Arm(c.Engine(), c)
	c.Start()
	return c
}

// TestChaosActuationReject: a rejected actuation surfaces as a transient
// error the retry ladder recognises, and changes nothing.
func TestChaosActuationReject(t *testing.T) {
	c := chaosCluster(t, "act-reject@0")
	c.Engine().Run(10 * time.Second)
	before, _ := c.App("web")
	wantReplicas := before.DesiredReplicas
	err := c.ApplyDecision("web", control.Decision{Replicas: 5, Alloc: resource.New(1000, 1<<30, 5e6, 5e6)})
	if err == nil {
		t.Fatal("rejected actuation returned nil")
	}
	if !control.IsTransient(err) {
		t.Fatalf("injected rejection %v is not transient", err)
	}
	after, _ := c.App("web")
	if after.DesiredReplicas != wantReplicas {
		t.Errorf("rejected actuation still changed replicas: %d → %d", wantReplicas, after.DesiredReplicas)
	}
	if got := c.Metrics().Counter("chaos/act-rejected").Value(); got == 0 {
		t.Error("chaos/act-rejected not counted")
	}
}

// TestChaosActuationDelay: a delayed actuation lands after the injected
// latency, not before.
func TestChaosActuationDelay(t *testing.T) {
	c := chaosCluster(t, "act-delay@0:delay=30s")
	c.Engine().Run(10 * time.Second)
	if err := c.ApplyDecision("web", control.Decision{Replicas: 6, Alloc: resource.New(1000, 1<<30, 5e6, 5e6)}); err != nil {
		t.Fatal(err)
	}
	mid, _ := c.App("web")
	if mid.DesiredReplicas == 6 {
		t.Error("delayed actuation applied immediately")
	}
	c.Engine().Run(45 * time.Second)
	late, _ := c.App("web")
	if late.DesiredReplicas != 6 {
		t.Errorf("delayed actuation never landed: replicas %d", late.DesiredReplicas)
	}
}

// TestChaosActuationPartial: a partial actuation moves the service a
// fraction of the way to the decision.
func TestChaosActuationPartial(t *testing.T) {
	c := chaosCluster(t, "act-partial@0:mag=0.5")
	c.Engine().Run(10 * time.Second)
	before, _ := c.App("web") // 2 replicas initially
	if err := c.ApplyDecision("web", control.Decision{Replicas: 6, Alloc: before.Alloc}); err != nil {
		t.Fatal(err)
	}
	after, _ := c.App("web")
	if after.DesiredReplicas != 4 { // 2 + (6-2)*0.5
		t.Errorf("partial actuation: replicas %d, want 4", after.DesiredReplicas)
	}
}

// TestChaosDropoutBlindsObservation: full sensor dropout produces
// observations the control layer classifies as blind, while the ground
// truth (PLO tracker, metric series) keeps recording.
func TestChaosDropoutBlindsObservation(t *testing.T) {
	c := chaosCluster(t, "metric-drop@0:p=1")
	c.Engine().Run(time.Minute)
	o, err := c.Observe("web")
	if err != nil {
		t.Fatal(err)
	}
	if o.Samples != 0 || o.ExpectedSamples != 12 {
		t.Errorf("samples = %d/%d, want 0/12 under full dropout", o.Samples, o.ExpectedSamples)
	}
	if !o.Blind() {
		t.Error("full dropout observation not blind")
	}
	if c.LastTick().SamplesDropped == 0 {
		t.Error("LastTick().SamplesDropped = 0 under full dropout")
	}
	// Ground truth is untouched: the SLI series has every tick.
	if n := len(c.Metrics().Series("app/web/sli").Samples()); n != 12 {
		t.Errorf("ground-truth sli series has %d samples, want 12", n)
	}
}

// TestChaosFreezeMarksStale: frozen sensors deliver stale substitutes
// that the observation reports as such.
func TestChaosFreezeMarksStale(t *testing.T) {
	c := chaosCluster(t, "metric-freeze@20s:p=1")
	c.Engine().Run(time.Minute)
	o, err := c.Observe("web")
	if err != nil {
		t.Fatal(err)
	}
	if o.ExpectedSamples != 12 || o.Samples != 12 {
		t.Fatalf("samples = %d/%d, want 12/12 (freeze still delivers)", o.Samples, o.ExpectedSamples)
	}
	// Ticks at 5s..60s; freeze active from 20s: 3 fresh, 9 frozen.
	if o.StaleSamples != 9 {
		t.Errorf("stale samples = %d, want 9", o.StaleSamples)
	}
	if !o.Blind() {
		// 3 fresh samples then silence: not blind on this window.
		t.Log("window still has fresh samples (expected)")
	}
	c.Engine().Run(2 * time.Minute)
	o, _ = c.Observe("web")
	if o.StaleSamples != o.Samples || !o.Blind() {
		t.Errorf("fully frozen window: %d/%d stale, blind=%v; want all stale and blind",
			o.StaleSamples, o.Samples, o.Blind())
	}
}

// TestFailNodeDrainsSchedulerSnapshot is the white-box regression for
// the mid-round drain: after FailNode, the reusable snapshot entry for
// the dead node must be emptied in place so a schedule call against the
// stale snapshot cannot pick it.
func TestFailNodeDrainsSchedulerSnapshot(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.CreateService(testService("web")); err != nil {
		t.Fatal(err)
	}
	c.SchedulePendingNow()
	c.refreshSnapshot()
	if _, ok := c.snap.Lookup("node-0"); !ok {
		t.Fatal("node-0 missing from snapshot")
	}
	live := c.snap.Live()
	if err := c.FailNode("node-0"); err != nil {
		t.Fatal(err)
	}
	if _, still := c.snap.Lookup("node-0"); still {
		t.Error("failed node still live in snapshot")
	}
	if c.snap.Live() != live-1 {
		t.Errorf("snapshot live count %d, want %d", c.snap.Live(), live-1)
	}
	// The entry is drained in place, not removed: error totals and
	// positions stay stable.
	var drained *sched.NodeInfo
	for i := range c.snap.Nodes() {
		if c.snap.Nodes()[i].Name == "node-0" {
			drained = &c.snap.Nodes()[i]
		}
	}
	if drained == nil {
		t.Fatal("drained entry vanished from the snapshot node list")
	}
	if !drained.Allocatable.IsZero() || len(drained.Pods) != 0 {
		t.Errorf("snapshot entry not drained: %+v", drained)
	}
	if err := c.snap.CheckInvariants(); err != nil {
		t.Errorf("snapshot invariants after FailNode: %v", err)
	}
	// The evicted replicas went pending; a fresh scheduling round must
	// place them on the surviving node only.
	c.SchedulePendingNow()
	for _, p := range c.Pods() {
		if p.Phase == Running && p.Node == "node-0" {
			t.Errorf("pod %s scheduled onto failed node", p.Name)
		}
	}
	checkInvariants(t, c, 0)
}

// TestChaosNodeKillIndexConsistency: under the node-kill chaos profile
// the scheduler snapshot never offers the failed node while it is down,
// stays internally consistent, and picks the node up again after
// restore. Extends TestFailNodeDrainsSchedulerSnapshot to the chaos
// path (extra replicas force scheduling rounds during the outage).
func TestChaosNodeKillIndexConsistency(t *testing.T) {
	c := chaosCluster(t, "node-kill")
	if err := c.ApplyDecision("web", control.Decision{Replicas: 6, Alloc: resource.New(500, 1<<30, 5e6, 5e6)}); err != nil {
		t.Fatal(err)
	}
	// Into the 30m–45m crash window: node-0 is down.
	c.Engine().Run(35 * time.Minute)
	if _, live := c.snap.Lookup("node-0"); live {
		t.Error("failed node live in the snapshot during the crash window")
	}
	if err := c.snap.CheckInvariants(); err != nil {
		t.Errorf("snapshot invariants during outage: %v", err)
	}
	for _, p := range c.Pods() {
		if p.Phase == Running && p.Node == "node-0" {
			t.Errorf("pod %s running on the failed node", p.Name)
		}
	}
	// Past the window: the node restores and rejoins the index, and the
	// next scheduling round may use it again.
	c.Engine().Run(50 * time.Minute)
	c.refreshSnapshot()
	if _, live := c.snap.Lookup("node-0"); !live {
		t.Error("restored node missing from the rebuilt snapshot")
	}
	if err := c.snap.CheckInvariants(); err != nil {
		t.Errorf("snapshot invariants after restore: %v", err)
	}
	checkInvariants(t, c, 0)
}
