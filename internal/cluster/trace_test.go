package cluster

import (
	"fmt"
	"testing"
	"time"

	"evolve/internal/control"
	"evolve/internal/obs"
	"evolve/internal/resource"
	"evolve/internal/sim"
)

// TestTraceEventsEmitted wires a tracer before Start and checks the
// cluster narrates its lifecycle: registry adds, scheduler binds, PLO
// onsets when an app drowns, and node-failure markers.
func TestTraceEventsEmitted(t *testing.T) {
	eng := sim.NewEngine(3)
	c := New(eng, DefaultConfig())
	tr := obs.New(4096)
	c.SetTracer(tr)
	if c.Tracer() != tr {
		t.Fatal("Tracer() does not return the installed tracer")
	}
	if err := c.AddNodes("n", 3, resource.New(16000, 64<<30, 1e9, 2e9)); err != nil {
		t.Fatal(err)
	}
	spec := testService("web")
	if err := c.CreateService(spec); err != nil {
		t.Fatal(err)
	}
	// Offered load far beyond what two starved replicas can serve: the
	// SLI blows through the PLO target and an onset must be recorded.
	if err := c.SetLoadFunc("web", func(time.Duration) float64 { return 5000 }); err != nil {
		t.Fatal(err)
	}
	c.Start()
	eng.Run(2 * time.Minute)
	if err := c.FailNode("n-0"); err != nil {
		t.Fatal(err)
	}
	eng.Run(3 * time.Minute)

	count := func(f obs.Filter) int { return len(tr.Snapshot(f)) }
	if n := count(obs.Filter{Kind: "registry", Verb: obs.VerbAdded}); n == 0 {
		t.Error("no registry added events")
	}
	if n := count(obs.Filter{Kind: "sched", Verb: obs.VerbBind, App: "web"}); n < int(spec.InitialReplicas) {
		t.Errorf("got %d bind events, want at least %d", n, spec.InitialReplicas)
	}
	if n := count(obs.Filter{Kind: "plo", Verb: obs.VerbOnset, App: "web"}); n == 0 {
		t.Error("no PLO onset despite a drowning service")
	}
	if n := count(obs.Filter{Kind: "sched", Verb: obs.VerbNodeFailed}); n != 1 {
		t.Errorf("got %d node-failed events, want 1", n)
	}
	// Every bind names a pod and a node.
	for _, ev := range tr.Snapshot(obs.Filter{Verb: obs.VerbBind}) {
		if ev.Object == "" || ev.Node == "" {
			t.Fatalf("bind event missing object/node: %+v", ev)
		}
	}
	// Onsets carry the SLI and the objective it violated.
	for _, ev := range tr.Snapshot(obs.Filter{Verb: obs.VerbOnset}) {
		if ev.SLI <= ev.Objective || ev.PerfErr <= 0 {
			t.Fatalf("onset event lacks violation evidence: %+v", ev)
		}
	}
}

// populatedCluster builds two nodes, the services web and api with two
// replicas each, and the task job-a, and returns the objects' metadata
// in creation order.
func populatedCluster(t *testing.T) (*Cluster, []*Meta) {
	t.Helper()
	c := newTestCluster(t, 2) // node-0, node-1
	for _, name := range []string{"web", "api"} {
		if err := c.CreateService(testService(name)); err != nil { // web-1, web-2, api-3, api-4
			t.Fatal(err)
		}
	}
	if err := c.SubmitTask(testTask("job-a", 1000, 1e9)); err != nil {
		t.Fatal(err)
	}
	return c, []*Meta{
		&c.nodes["node-0"].Meta, &c.nodes["node-1"].Meta, &c.apps["web"].obj.Meta, &c.pods["web-1"].Meta,
		&c.pods["web-2"].Meta, &c.apps["api"].obj.Meta, &c.pods["api-3"].Meta, &c.pods["api-4"].Meta, &c.pods["job-a"].Meta,
	}
}

// lifecycleTrace returns the object lifecycle events on tr as
// "verb kind/name".
func lifecycleTrace(tr *obs.Tracer) []string {
	var out []string
	for _, ev := range tr.Snapshot(obs.Filter{Kind: "registry"}) {
		out = append(out, ev.Verb+" "+ev.Object)
	}
	return out
}

// replayOfPopulated is what SetTracer replays for populatedCluster.
var replayOfPopulated = []string{
	"added app/api", "added app/web", "added node/node-0", "added node/node-1",
	"added pod/api-3", "added pod/api-4", "added pod/job-a", "added pod/web-1", "added pod/web-2",
}

// TestCreateStampsVersion: every create stamps the next version, and the
// created object is the one the cluster hands out.
func TestCreateStampsVersion(t *testing.T) {
	c, created := populatedCluster(t)
	for i, m := range created {
		if m.ResourceVersion != uint64(i+1) {
			t.Errorf("%s/%s created as number %d has version %d", m.Kind, m.Name, i+1, m.ResourceVersion)
		}
	}
	if c.version != uint64(len(created)) {
		t.Errorf("cluster version = %d after %d creates", c.version, len(created))
	}
	web, err := c.App("web")
	if err != nil || &web.Meta != created[2] {
		t.Errorf("App(web) = %p, %v; want the created object %p", web, err, created[2])
	}
	if got := len(c.Pods()); got != 5 {
		t.Errorf("Pods() has %d objects, want 5", got)
	}
}

// TestTracerReplaysInNameOrder: enabling a tracer on a populated cluster
// replays its objects as added — apps, then nodes, then pods, each by
// name, whatever order they were created in.
func TestTracerReplaysInNameOrder(t *testing.T) {
	c, _ := populatedCluster(t)
	tr := obs.New(256)
	c.SetTracer(tr)
	if got := lifecycleTrace(tr); fmt.Sprint(got) != fmt.Sprint(replayOfPopulated) {
		t.Fatalf("replay = %v, want %v", got, replayOfPopulated)
	}
}

// TestTracerReplaysAllKinds: the replay covers every object of every
// kind, and a new object of each kind created afterwards is traced too.
func TestTracerReplaysAllKinds(t *testing.T) {
	c, created := populatedCluster(t)
	tr := obs.New(256)
	c.SetTracer(tr)
	if got := len(lifecycleTrace(tr)); got != len(created) {
		t.Fatalf("replay has %d events for %d objects", got, len(created))
	}
	if err := c.AddNode("node-2", resource.New(16000, 64<<30, 1e9, 2e9)); err != nil {
		t.Fatal(err)
	}
	spec := testService("db")
	spec.InitialReplicas = 1
	if err := c.CreateService(spec); err != nil { // db-5
		t.Fatal(err)
	}
	if err := c.SubmitTask(testTask("job-b", 1000, 1e9)); err != nil {
		t.Fatal(err)
	}
	want := append(append([]string{}, replayOfPopulated...),
		"added node/node-2", "added app/db", "added pod/db-5", "added pod/job-b")
	if got := lifecycleTrace(tr); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("lifecycle = %v, want %v", got, want)
	}
}

// TestTracerRecordsCreateAndDelete: once a tracer is installed, every
// creation and deletion of a pod is traced, in the order it happens.
func TestTracerRecordsCreateAndDelete(t *testing.T) {
	c, _ := populatedCluster(t)
	tr := obs.New(256)
	c.SetTracer(tr)
	c.SchedulePendingNow()
	alloc := testService("web").InitialAlloc
	for _, replicas := range []int{3, 1} {
		if err := c.ApplyDecision("web", control.Decision{Replicas: replicas, Alloc: alloc}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.KillTask("job-a"); err != nil {
		t.Fatal(err)
	}
	want := append(append([]string{}, replayOfPopulated...),
		"added pod/web-5", "deleted pod/web-5", "deleted pod/web-2", "deleted pod/job-a")
	if got := lifecycleTrace(tr); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("lifecycle = %v, want %v", got, want)
	}
}

// TestUpdateIsSilent: binding and resizing stamp fresh versions on the
// objects they change, but no lifecycle event is traced for them.
func TestUpdateIsSilent(t *testing.T) {
	c, created := populatedCluster(t)
	tr := obs.New(256)
	c.SetTracer(tr)
	before := c.version
	c.SchedulePendingNow() // binds update pods and nodes
	if err := c.ApplyDecision("web", control.Decision{Replicas: 2, Alloc: resource.New(2000, 1<<30, 50e6, 50e6)}); err != nil {
		t.Fatal(err)
	}
	if c.version <= before {
		t.Fatalf("binds and a resize left the version at %d", c.version)
	}
	if got := lifecycleTrace(tr); fmt.Sprint(got) != fmt.Sprint(replayOfPopulated) {
		t.Errorf("updates were traced: lifecycle = %v", got)
	}
	for _, m := range created[:5] { // both nodes, web and its replicas: bound or resized
		if m.ResourceVersion <= before || m.ResourceVersion > c.version {
			t.Errorf("%s/%s at version %d, want in (%d, %d]", m.Kind, m.Name, m.ResourceVersion, before, c.version)
		}
	}
	if web := c.apps["web"].obj; web.ResourceVersion <= before || web.ResourceVersion > c.version {
		t.Errorf("resized app web at version %d, want in (%d, %d]", web.ResourceVersion, before, c.version)
	}
}

// TestDeleteForgetsObject: a deleted pod is gone from the cluster's
// maps and listings, its deletion is traced once, and deleting it again
// is refused without a second event.
func TestDeleteForgetsObject(t *testing.T) {
	c, _ := populatedCluster(t)
	tr := obs.New(256)
	c.SetTracer(tr)
	if err := c.KillTask("job-a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.pods["job-a"]; ok {
		t.Error("pod job-a still in the cluster after its deletion")
	}
	for _, p := range c.Pods() {
		if p.Name == "job-a" {
			t.Error("Pods() still lists job-a")
		}
	}
	if err := c.KillTask("job-a"); err == nil {
		t.Error("deleting job-a twice succeeded")
	}
	deleted := tr.Snapshot(obs.Filter{Kind: "registry", Verb: obs.VerbDeleted})
	if len(deleted) != 1 || deleted[0].Object != "pod/job-a" {
		t.Errorf("deleted events = %+v, want one for pod/job-a", deleted)
	}
}

// TestLifecycleErrorText pins the refusals of the object lifecycle:
// creating a name that is taken, deleting one that is not there, and
// deleting a replica as if it were a task.
func TestLifecycleErrorText(t *testing.T) {
	c, _ := populatedCluster(t)
	for _, tc := range []struct {
		err  error
		want string
	}{
		{c.AddNode("node-0", resource.New(1, 1, 1, 1)), "cluster: node node-0 already exists"},
		{c.CreateService(testService("web")), "cluster: service web already exists"},
		{c.SubmitTask(testTask("web-1", 1000, 1e9)), "cluster: pod web-1 already exists"},
		{c.KillTask("nope"), "cluster: unknown task nope"},
		{c.KillTask("web-1"), "cluster: pod web-1 is not a task"},
	} {
		if tc.err == nil || tc.err.Error() != tc.want {
			t.Errorf("error = %v, want %q", tc.err, tc.want)
		}
	}
	if obs.VerbAdded != "added" || obs.VerbDeleted != "deleted" {
		t.Errorf("lifecycle verbs = %q, %q; want added, deleted", obs.VerbAdded, obs.VerbDeleted)
	}
}

// TestTickTracedAllocsBudget is the traced half of the steady-state
// guarantee: with a tracer installed — which enables the span layer
// too — a settled tick may only touch the heap for the rare events it
// records: the budget is a couple of objects per tick, not per pod.
// Spans cost nothing here by construction: they are emitted at binds,
// decisions and evictions, none of which a steady-state tick performs.
func TestTickTracedAllocsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short")
	}
	c, eng := newBenchCluster(t, 200)
	tr := obs.New(obs.DefaultCapacity)
	c.SetTracer(tr)
	eng.Run(eng.Now() + 700*c.cfg.MetricsInterval)
	for _, app := range c.Apps() {
		if _, err := c.Observe(app); err != nil {
			t.Fatal(err)
		}
	}
	spansBefore := tr.Spans()
	allocs := testing.AllocsPerRun(100, func() { c.tick() })
	if allocs > 2 {
		t.Errorf("traced steady-state tick allocates %.1f objects/run, want ≤2", allocs)
	}
	if got := tr.Spans(); got != spansBefore {
		t.Errorf("steady-state ticks recorded %d spans, want 0", got-spansBefore)
	}
	// The span path is live, not disabled: a bind-producing mutation
	// records lifecycle spans on the very same cluster.
	app, err := c.App(c.Apps()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyDecision(app.Spec.Name, control.Decision{
		Replicas: app.DesiredReplicas + 1, Alloc: app.Alloc,
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now() + 3*c.cfg.MetricsInterval)
	if tr.Spans() == spansBefore {
		t.Error("scale-up recorded no spans on the traced cluster")
	}
}

// BenchmarkTickTraced is BenchmarkTick with tracing enabled — the pair
// quantifies the observability overhead documented in DESIGN.md.
func BenchmarkTickTraced(b *testing.B) {
	for _, pods := range benchSizes {
		b.Run(fmt.Sprintf("pods-%d", pods), func(b *testing.B) {
			c, _ := newBenchCluster(b, pods)
			c.SetTracer(obs.New(obs.DefaultCapacity))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.tick()
			}
		})
	}
}
