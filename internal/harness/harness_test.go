package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"evolve/internal/baseline"
	"evolve/internal/cluster"
	"evolve/internal/core"
	"evolve/internal/metrics"
	"evolve/internal/resource"
	"evolve/internal/workload"
	"evolve/internal/world"
)

// tinyScenario is a fast scenario for harness-mechanics tests.
func tinyScenario() Scenario {
	return Scenario{
		Name:            "tiny",
		Seed:            7,
		Nodes:           3,
		NodeCapacity:    world.DefaultNodeShape(),
		Duration:        20 * time.Minute,
		Warmup:          2 * time.Minute,
		ControlInterval: 15 * time.Second,
		Apps: []AppLoad{{
			Spec:    workload.Service(workload.Web, "web", 200, 2),
			Pattern: workload.Constant(200),
		}},
	}
}

func TestScenarioValidate(t *testing.T) {
	good := tinyScenario()
	if err := good.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
	cases := []func(*Scenario){
		func(s *Scenario) { s.Nodes = 0 },
		func(s *Scenario) { s.NodeCapacity = resource.Vector{} },
		func(s *Scenario) { s.Duration = 0 },
		func(s *Scenario) { s.Warmup = s.Duration },
		func(s *Scenario) { s.Apps = nil },
		func(s *Scenario) { s.Apps[0].Spec.Name = "" },
		func(s *Scenario) {
			s.Apps[0].Pattern = workload.Func(func(time.Duration) float64 { return -1 })
		},
	}
	for i, mutate := range cases {
		sc := tinyScenario()
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestRunProducesResult(t *testing.T) {
	res, err := Run(tinyScenario(), Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "evolve" || res.Scenario != "tiny" {
		t.Errorf("labels: %+v", res)
	}
	if len(res.Apps) != 1 || res.Apps[0].App != "web" {
		t.Fatalf("apps: %+v", res.Apps)
	}
	a := res.Apps[0]
	if a.MeanSLI <= 0 || a.MeanReplicas < 1 {
		t.Errorf("app result: %+v", a)
	}
	if a.MeanAlloc[resource.CPU] <= 0 {
		t.Errorf("mean alloc: %v", a.MeanAlloc)
	}
	if res.AllocFraction[resource.CPU] <= 0 || res.UsageOfAlloc <= 0 {
		t.Errorf("cluster fractions: %+v", res)
	}
	if res.Binds == 0 {
		t.Error("no binds counted")
	}
	if res.Cluster == nil {
		t.Error("cluster not attached")
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	p := Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())}
	a, err := Run(tinyScenario(), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinyScenario(), p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Apps[0].MeanSLI != b.Apps[0].MeanSLI || a.AllocFraction != b.AllocFraction {
		t.Error("same seed must reproduce identical results")
	}
}

func TestRunOverprovisionScalesInitialAlloc(t *testing.T) {
	sc := tinyScenario()
	base, err := Run(sc, Policy{Name: "s1", Factory: baseline.StaticFactory(), Overprovision: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(sc, Policy{Name: "s2", Factory: baseline.StaticFactory(), Overprovision: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := big.Apps[0].MeanAlloc[resource.CPU] / base.Apps[0].MeanAlloc[resource.CPU]
	if r < 1.8 || r > 2.2 {
		t.Errorf("overprovision ratio = %v, want ≈2", r)
	}
}

func TestRunWithBatchAndHPC(t *testing.T) {
	sc := tinyScenario()
	sc.Duration = 40 * time.Minute
	sc.BatchJobs = BatchStream(2, 5*time.Minute, 0.5)
	sc.HPCJobs = HPCStream(2, 6*time.Minute, 2)
	res, err := Run(sc, Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchCompleted != 2 {
		t.Errorf("batch completed = %d, want 2", res.BatchCompleted)
	}
	if res.HPCCompleted != 2 {
		t.Errorf("hpc completed = %d, want 2", res.HPCCompleted)
	}
	if res.BatchMakespan <= 0 || res.HPCMeanRuntime <= 0 {
		t.Errorf("durations: batch=%v hpc=%v", res.BatchMakespan, res.HPCMeanRuntime)
	}
}

func TestCloudAppsValid(t *testing.T) {
	for _, a := range CloudApps(1) {
		if err := a.Spec.Validate(); err != nil {
			t.Errorf("app %s: %v", a.Spec.Name, err)
		}
		if err := workload.Validate(a.Pattern, 2*time.Hour); err != nil {
			t.Errorf("pattern %s: %v", a.Spec.Name, err)
		}
	}
	for _, mix := range Mixes() {
		if err := BuildScenario(mix, 1).Validate(); err != nil {
			t.Errorf("mix %s: %v", mix, err)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "Table X",
		Title:   "test",
		Headers: []string{"a", "b", "c"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("x", 1.23456, uint64(7))
	tab.AddRow("longer-cell", 12345.6, 0)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table X — test") || !strings.Contains(out, "note: a note") {
		t.Errorf("render output:\n%s", out)
	}
	if !strings.Contains(out, "1.235") || !strings.Contains(out, "12346") {
		t.Errorf("number formatting:\n%s", out)
	}
	buf.Reset()
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,b,c" {
		t.Errorf("csv output:\n%s", buf.String())
	}
}

func TestFigureRendering(t *testing.T) {
	f := &Figure{ID: "Figure X", Title: "test", XLabel: "t", Columns: []string{"y1", "y2"}}
	for i := 0; i < 10; i++ {
		if err := f.AddPoint(float64(i), float64(i), float64(10-i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.AddPoint(11, 1); err == nil {
		t.Error("wrong arity should fail")
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "y1") || !strings.Contains(buf.String(), "min=") {
		t.Errorf("render:\n%s", buf.String())
	}
	buf.Reset()
	if err := f.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 11 || lines[0] != "t,y1,y2" {
		t.Errorf("csv:\n%s", buf.String())
	}
}

func TestSparkline(t *testing.T) {
	if s := sparkline(nil, 10); s != "" {
		t.Errorf("empty sparkline = %q", s)
	}
	s := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if len([]rune(s)) != 8 {
		t.Errorf("sparkline length = %d", len([]rune(s)))
	}
	// Constant series: all same rune, no panic on zero range.
	s = sparkline([]float64{5, 5, 5, 5}, 4)
	runes := []rune(s)
	for _, r := range runes {
		if r != runes[0] {
			t.Error("constant series should be flat")
		}
	}
}

func TestMeasureOverheadSmoke(t *testing.T) {
	d := MeasureDecisionLatency(5, 50)
	if d <= 0 || d > time.Millisecond {
		t.Errorf("decision latency = %v", d)
	}
	p := MeasureScheduleLatency(10, 100)
	if p <= 0 || p > time.Millisecond {
		t.Errorf("placement latency = %v", p)
	}
	if MeasureDecisionLatency(0, 0) != 0 {
		t.Error("zero work should be 0")
	}
}

// TestHeadlineShape asserts the qualitative reproduction targets of the
// Table 1 experiment on the cloud mix: the adaptive multi-resource
// controller must beat under-provisioned static requests on violations by
// a large factor while using its allocation more efficiently than both
// static variants and the HPA.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full mix run")
	}
	sc := BuildScenario(MixCloud, 7)
	results := make(map[string]*Result)
	for _, pol := range StandardPolicies() {
		res, err := Run(sc, pol)
		if err != nil {
			t.Fatal(err)
		}
		results[pol.Name] = res
	}
	ev, st2, st3 := results["evolve"], results["static-2x"], results["static-3x"]
	hpa := results["hpa"]

	if v := ev.OverallViolation(); v > 0.02 {
		t.Errorf("evolve violations = %.4f, want < 2%%", v)
	}
	if ratio := st2.OverallViolation() / maxFloat(ev.OverallViolation(), 1e-6); ratio < 7.4 {
		t.Errorf("violation improvement vs static-2x = %.1fx, want > 7.4x", ratio)
	}
	if ev.UsageOfAlloc <= st3.UsageOfAlloc*1.3 {
		t.Errorf("efficiency: evolve %.3f vs static-3x %.3f, want >1.3x", ev.UsageOfAlloc, st3.UsageOfAlloc)
	}
	if ev.UsageOfAlloc <= hpa.UsageOfAlloc {
		t.Errorf("efficiency: evolve %.3f vs hpa %.3f", ev.UsageOfAlloc, hpa.UsageOfAlloc)
	}
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestRunWithHooksInjectsFailure(t *testing.T) {
	sc := tinyScenario()
	sc.Duration = 30 * time.Minute
	failed := false
	res, err := RunWithHooks(sc, Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())},
		[]Hook{{At: 10 * time.Minute, Do: func(c *cluster.Cluster) {
			failed = true
			if err := c.FailNode("node-0"); err != nil {
				t.Error(err)
			}
		}}})
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("hook did not run")
	}
	if res.Cluster.Metrics().Counter("nodes/failures").Value() != 1 {
		t.Error("failure not recorded")
	}
}

func TestResultCarriesEconomics(t *testing.T) {
	res, err := Run(tinyScenario(), Policy{Name: "evolve", Factory: core.Factory(core.DefaultConfig())})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dollars <= 0 || res.WattHour <= 0 {
		t.Errorf("economics: $%v %vWh", res.Dollars, res.WattHour)
	}
	// Double the static allocation must cost measurably more.
	cheap, err := Run(tinyScenario(), Policy{Name: "s1", Factory: baseline.StaticFactory(), Overprovision: 1})
	if err != nil {
		t.Fatal(err)
	}
	dear, err := Run(tinyScenario(), Policy{Name: "s2", Factory: baseline.StaticFactory(), Overprovision: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dear.Dollars <= cheap.Dollars {
		t.Errorf("bill not monotone in allocation: %v vs %v", dear.Dollars, cheap.Dollars)
	}
}

func TestRecoveryStats(t *testing.T) {
	mk := func(vals ...float64) []metrics.Sample {
		out := make([]metrics.Sample, len(vals))
		for i, v := range vals {
			out[i] = metrics.Sample{At: time.Duration(i) * time.Minute, Value: v}
		}
		return out
	}
	// Pre-failure level 3; dips at minute 5, back at minute 7.
	ready := mk(3, 3, 3, 3, 3, 2, 2, 3, 3)
	if d := recoveryStats(ready, 4*time.Minute+30*time.Second); d != 2*time.Minute+30*time.Second {
		t.Errorf("recovery = %v", d)
	}
	// Never recovers: reports span to the end.
	ready = mk(3, 3, 2, 2, 2)
	if d := recoveryStats(ready, time.Minute+30*time.Second); d != 2*time.Minute+30*time.Second {
		t.Errorf("no-recovery span = %v", d)
	}
	if recoveryStats(nil, time.Minute) != 0 {
		t.Error("empty series")
	}
}

func TestFigure9ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run")
	}
	fig, err := Figure9(NewRunner(0), 9)
	if err != nil {
		t.Fatal(err)
	}
	// At the largest startup delay, the horizontal-only policy must
	// violate several times more than the vertical-first controller.
	last := len(fig.X) - 1
	ev, hpa := fig.Series[0][last], fig.Series[1][last]
	if hpa < ev*2 {
		t.Errorf("at %vs delay: hpa %.2f%% vs evolve %.2f%%; expected hpa >= 2x", fig.X[last], hpa, ev)
	}
	// HPA must degrade with delay (last point worse than first).
	if fig.Series[1][last] <= fig.Series[1][0] {
		t.Errorf("hpa does not degrade with startup delay: %v", fig.Series[1])
	}
}

// TestTable6ConvergenceShape asserts the thesis claim on a fresh seed:
// sharing beats static silos on batch/HPC outcomes without hurting the
// services.
func TestTable6ConvergenceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full run")
	}
	tab, err := Table6(NewRunner(0), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	parse := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[col], err)
		}
		return v
	}
	part, shared := tab.Rows[0], tab.Rows[1]
	if parse(shared, 2) >= parse(part, 2) && parse(part, 2) > 1 {
		t.Errorf("shared hpc wait %s >= partitioned %s", shared[2], part[2])
	}
	if parse(shared, 4) >= parse(part, 4) {
		t.Errorf("shared batch makespan %s >= partitioned %s", shared[4], part[4])
	}
	// Service compliance must not be sacrificed (within 1.5 points).
	if parse(shared, 1) > parse(part, 1)+1.5 {
		t.Errorf("sharing hurt services: %s vs %s", shared[1], part[1])
	}
}

func TestFigure8RecoversWithinOneTickWindow(t *testing.T) {
	fig, err := Figure8(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.X) == 0 {
		t.Fatal("empty figure")
	}
	found := false
	for _, n := range fig.Notes {
		if strings.Contains(n, "recover") {
			found = true
		}
	}
	if !found {
		t.Error("missing recovery note")
	}
}
