package evolve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestNewDefaults(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Now() != 0 {
		t.Error("fresh cluster should be at t=0")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{NodeShape: "cpu"}); err == nil {
		t.Error("bad node shape should fail")
	}
	if _, err := New(Options{Policy: "magic"}); err == nil {
		t.Error("unknown policy should fail")
	}
	for _, p := range []string{"evolve", "hpa", "vpa", "static", "pid-cpu-only"} {
		if _, err := New(Options{Policy: p}); err != nil {
			t.Errorf("policy %s rejected: %v", p, err)
		}
	}
}

// TestNewRefusesWorkerOptions: the deprecated ScoreWorkers and
// CtrlWorkers fields accept only 0 or 1. Any other value must fail New
// with an error naming the field, never quietly run the serial path.
func TestNewRefusesWorkerOptions(t *testing.T) {
	for _, tc := range []struct {
		field string
		opts  func(n int) Options
	}{
		{"ScoreWorkers", func(n int) Options { return Options{ScoreWorkers: n} }},
		{"CtrlWorkers", func(n int) Options { return Options{CtrlWorkers: n} }},
	} {
		for _, n := range []int{2, 8, -1} {
			c, err := New(tc.opts(n))
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s=%d: err = %v, want an error naming %s", tc.field, n, err, tc.field)
			}
			if c != nil {
				t.Errorf("%s=%d: New built a world alongside its error", tc.field, n)
			}
		}
		for _, n := range []int{0, 1} {
			if _, err := New(tc.opts(n)); err != nil {
				t.Errorf("%s=%d rejected: %v", tc.field, n, err)
			}
		}
	}
}

func TestAddServiceValidation(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []ServiceOptions{
		{},
		{Name: "x"},
		{Name: "x", BaseRate: 100, Archetype: "mainframe"},
		{Name: "x", BaseRate: 100, LatencyObjective: time.Second, ThroughputObjective: 5},
	}
	for i, o := range cases {
		if err := c.AddService(o); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if err := c.AddService(ServiceOptions{Name: "ok", BaseRate: 100}); err != nil {
		t.Errorf("valid service rejected: %v", err)
	}
}

func TestEndToEndQuickstart(t *testing.T) {
	c, err := New(Options{Seed: 3, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{
		Name: "web", Archetype: "web", BaseRate: 300,
		LatencyObjective: 100 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("web", Diurnal(150, 900, time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(90 * time.Minute); err != nil {
		t.Fatal(err)
	}
	v, err := c.Violations("web")
	if err != nil {
		t.Fatal(err)
	}
	if v > 0.05 {
		t.Errorf("violations = %.3f, want < 5%% with the evolve policy", v)
	}
	rep := c.Report()
	if rep.Elapsed != 90*time.Minute || len(rep.Services) != 1 {
		t.Errorf("report: %+v", rep)
	}
	if !strings.Contains(rep.String(), "web") {
		t.Error("report string missing service")
	}
	if rep.ClusterCPUUsed <= 0 || rep.ClusterCPUAllocated < rep.ClusterCPUUsed {
		t.Errorf("cluster fractions: %+v", rep)
	}
}

func TestRunInStages(t *testing.T) {
	c, err := New(Options{Seed: 4, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{Name: "svc", BaseRate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("svc", Constant(100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if c.Now() != 20*time.Minute {
		t.Errorf("Now = %v", c.Now())
	}
	if err := c.Run(0); err == nil {
		t.Error("zero duration should fail")
	}
	if err := c.AddService(ServiceOptions{Name: "late", BaseRate: 10}); err == nil {
		t.Error("adding services after Run should fail")
	}
}

func TestBatchAndHPCJobs(t *testing.T) {
	c, err := New(Options{Seed: 5, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{Name: "svc", BaseRate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("svc", Constant(100)); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitBatchJob(BatchJobOptions{Name: "sort", Scale: 0.5, SubmitAt: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitHPCJob(HPCJobOptions{Name: "mpi", Ranks: 2, SubmitAt: 2 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitHPCJob(HPCJobOptions{Ranks: 2}); err == nil {
		t.Error("nameless hpc job should fail")
	}
	if err := c.SubmitHPCJob(HPCJobOptions{Name: "x"}); err == nil {
		t.Error("rankless hpc job should fail")
	}
	if err := c.SubmitBatchJob(BatchJobOptions{}); err == nil {
		t.Error("nameless batch job should fail")
	}
	if err := c.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, done := c.BatchDone("sort"); !done {
		t.Error("batch job did not finish")
	}
	if s, err := c.HPCStatus("mpi"); err != nil || s != "done" {
		t.Errorf("hpc status = %q, %v", s, err)
	}
	rep := c.Report()
	if rep.BatchJobsCompleted != 1 || rep.HPCJobsCompleted != 1 {
		t.Errorf("report jobs: %+v", rep)
	}
}

func TestLoadHelpers(t *testing.T) {
	if Constant(5)(time.Hour) != 5 {
		t.Error("Constant wrong")
	}
	d := Diurnal(10, 30, time.Hour)
	if d(0) != 10 || d(30*time.Minute) != 30 {
		t.Error("Diurnal wrong")
	}
	s := Step(1, 2, time.Minute)
	if s(0) != 1 || s(2*time.Minute) != 2 {
		t.Error("Step wrong")
	}
	fc := FlashCrowd(1, 10, time.Minute, time.Minute)
	if fc(90*time.Second) != 10 || fc(3*time.Minute) != 1 {
		t.Error("FlashCrowd wrong")
	}
	n := Noisy(Constant(100), 0.1, 3)
	v := n(time.Minute)
	if v < 90 || v > 110 {
		t.Errorf("Noisy out of bounds: %v", v)
	}
}

func TestFromTraceCSV(t *testing.T) {
	csv := "seconds,rate\n0,100\n60,200\n120,300\n"
	fn, err := FromTraceCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if fn(30*time.Second) != 100 {
		t.Errorf("step replay at 30s = %v", fn(30*time.Second))
	}
	if fn(90*time.Second) != 200 {
		t.Errorf("step replay at 90s = %v", fn(90*time.Second))
	}
	if _, err := FromTraceCSV(strings.NewReader("garbage")); err == nil {
		t.Error("bad trace should fail")
	}
	// End-to-end: drive a service with the trace.
	c, err := New(Options{Seed: 8, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{Name: "svc", BaseRate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("svc", fn); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if last, ok := mustSeriesLast(c, "app/svc/offered"); !ok || last != 300 {
		t.Errorf("offered at end = %v", last)
	}
}

// mustSeriesLast fetches the last sample of a series via the CSV export
// (keeping the test on the public API surface).
func mustSeriesLast(c *Cluster, name string) (float64, bool) {
	var buf bytes.Buffer
	if err := c.WriteSeriesCSV(name, &buf); err != nil {
		return 0, false
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		return 0, false
	}
	fields := strings.Split(lines[len(lines)-1], ",")
	var v float64
	if _, err := fmt.Sscanf(fields[1], "%g", &v); err != nil {
		return 0, false
	}
	return v, true
}

func TestSeriesCSVExport(t *testing.T) {
	c, err := New(Options{Seed: 6, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{Name: "svc", BaseRate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("svc", Constant(100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	names := c.SeriesNames()
	if len(names) == 0 {
		t.Fatal("no series recorded")
	}
	var buf bytes.Buffer
	if err := c.WriteSeriesCSV("app/svc/latency-mean", &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "seconds,value" || len(lines) < 10 {
		t.Errorf("csv:\n%s", buf.String())
	}
	if err := c.WriteSeriesCSV("nope", &buf); err == nil {
		t.Error("unknown series should fail")
	}
}

func TestDeterministicReplayAcrossClusters(t *testing.T) {
	run := func() float64 {
		c, err := New(Options{Seed: 11, Nodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddService(ServiceOptions{Name: "svc", BaseRate: 200}); err != nil {
			t.Fatal(err)
		}
		if err := c.SetLoad("svc", Noisy(Diurnal(100, 500, time.Hour), 0.1, 9)); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		v, _ := c.Violations("svc")
		rep := c.Report()
		return v + rep.ClusterCPUUsed
	}
	if a, b := run(), run(); a != b {
		t.Errorf("replay diverged: %v vs %v", a, b)
	}
}

// TestShardsOptionByteIdentical pins the public contract of
// Options.Shards: every shard count produces exactly the results of the
// default one-shard kernel.
func TestShardsOptionByteIdentical(t *testing.T) {
	run := func(shards int) (float64, string) {
		c, err := New(Options{Seed: 11, Nodes: 6, Shards: shards, ShardWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddService(ServiceOptions{Name: "svc", BaseRate: 200}); err != nil {
			t.Fatal(err)
		}
		if err := c.SetLoad("svc", Noisy(Diurnal(100, 500, time.Hour), 0.1, 9)); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		v, _ := c.Violations("svc")
		return v, fmt.Sprintf("%+v", c.Report())
	}
	v1, rep1 := run(0)
	for _, shards := range []int{2, 5} {
		v, rep := run(shards)
		if v != v1 || rep != rep1 {
			t.Errorf("shards=%d diverged: violations %v vs %v, report %s vs %s",
				shards, v, v1, rep, rep1)
		}
	}
}

func TestStaticPolicyViolatesUnderPeak(t *testing.T) {
	mk := func(policy string) float64 {
		c, err := New(Options{Seed: 12, Nodes: 4, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddService(ServiceOptions{Name: "svc", BaseRate: 200}); err != nil {
			t.Fatal(err)
		}
		if err := c.SetLoad("svc", Diurnal(100, 600, time.Hour)); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		v, _ := c.Violations("svc")
		return v
	}
	static := mk("static")
	adaptive := mk("evolve")
	if static < adaptive*5 {
		t.Errorf("static %.3f vs evolve %.3f: expected static to violate far more under a 3x peak", static, adaptive)
	}
}

func TestChaosOptionValidation(t *testing.T) {
	if _, err := New(Options{Chaos: "meteor-strike@0"}); err == nil {
		t.Error("unknown chaos kind should fail New")
	}
	for _, plan := range []string{"node-kill", "sensor-dropout", "actuation-flake", "mixed", "metric-drop@10m:p=0.5"} {
		if _, err := New(Options{Chaos: plan}); err != nil {
			t.Errorf("chaos plan %q rejected: %v", plan, err)
		}
	}
}

// TestChaosDegradedModeSurfaces: a total sensor blackout pushes the
// hardened loop into degraded mode, and both the controller state view
// and the report show it.
func TestChaosDegradedModeSurfaces(t *testing.T) {
	c, err := New(Options{Seed: 1, Nodes: 3, Chaos: "metric-drop@10m:p=1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{Name: "web", BaseRate: 300}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("web", Constant(300)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	states := c.ControllerStates()
	if len(states) != 1 {
		t.Fatalf("controller states: %+v", states)
	}
	if !states[0].Degraded || !strings.Contains(states[0].Health, "degraded") {
		t.Errorf("blackout did not surface as degraded: %+v", states[0])
	}
	rep := c.Report()
	if rep.DegradedPeriods == 0 {
		t.Error("report shows no degraded periods under a 20-minute blackout")
	}
	if !strings.Contains(rep.String(), "degraded periods") {
		t.Error("report text omits the robustness line")
	}
}

// TestChaosReplayDeterministic: the same seed and chaos plan replay to
// identical reports.
func TestChaosReplayDeterministic(t *testing.T) {
	run := func() string {
		c, err := New(Options{Seed: 7, Nodes: 3, Chaos: "mixed"})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddService(ServiceOptions{Name: "web", BaseRate: 300}); err != nil {
			t.Fatal(err)
		}
		if err := c.SetLoad("web", Diurnal(150, 900, time.Hour)); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		return c.Report().String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("chaos replay diverged:\n--- first\n%s\n--- second\n%s", a, b)
	}
}
