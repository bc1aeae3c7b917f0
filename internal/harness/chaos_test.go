package harness

import (
	"strings"
	"testing"
	"time"
)

// TestTable7Reproducible is the bit-for-bit acceptance check for chaos
// runs: the same seed and profiles, executed twice from cold runners,
// must render byte-identical tables (text and CSV).
func TestTable7Reproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	render := func() (string, string) {
		tbl, err := Table7(NewRunner(1), 3)
		if err != nil {
			t.Fatal(err)
		}
		var txt, csv strings.Builder
		if err := tbl.Render(&txt); err != nil {
			t.Fatal(err)
		}
		if err := tbl.RenderCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return txt.String(), csv.String()
	}
	txt1, csv1 := render()
	txt2, csv2 := render()
	if txt1 != txt2 {
		t.Errorf("table 7 text differs between identical runs:\n--- first\n%s\n--- second\n%s", txt1, txt2)
	}
	if csv1 != csv2 {
		t.Error("table 7 CSV differs between identical runs")
	}
}

func TestTable7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	tbl, err := Table7(NewRunner(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := len(chaosVariants) * len(chaosPolicies())
	if len(tbl.Rows) != want {
		t.Fatalf("table 7 has %d rows, want %d", len(tbl.Rows), want)
	}
	var txt, csv strings.Builder
	if err := tbl.Render(&txt); err != nil {
		t.Fatal(err)
	}
	if err := tbl.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if txt.Len() == 0 || csv.Len() == 0 {
		t.Error("empty render")
	}
}

// TestSensorDropoutWithinBound: under the standard 20% sensor dropout
// profile, EVOLVE's violation rate must stay within 2× its fault-free
// rate (plus a small absolute floor for near-zero baselines) — the
// degraded-mode loop holds the last safe operating point instead of
// chasing a partial picture.
func TestSensorDropoutWithinBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	r := NewRunner(0)
	pol := chaosPolicies()[0] // evolve
	clean := chaosBase(11)
	clean.Name = "bound-clean"
	dropped := chaosBase(11)
	dropped.Name = "bound-dropout"
	dropped.Chaos = "sensor-dropout" // metric-drop p=0.2
	base, err := r.Run(clean, pol)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := r.Run(dropped, pol)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.SamplesDropped == 0 {
		t.Fatal("dropout profile dropped no samples; injection not active")
	}
	limit := 2*base.OverallViolation() + 0.01
	if v := faulty.OverallViolation(); v > limit {
		t.Errorf("violation under 20%% dropout = %.4f, want <= %.4f (fault-free %.4f)",
			v, limit, base.OverallViolation())
	}
}

// TestNodeKillReconverges: after the injected node crash the ready
// replica count must regain its pre-crash level within a bounded number
// of control periods — the crash evicts replicas, the scheduler
// re-places them, and the hardened loop absorbs the disturbance.
func TestNodeKillReconverges(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	r := NewRunner(0)
	sc := chaosBase(5)
	sc.Name = "reconverge"
	sc.Chaos = "node-kill" // node-crash@30m-45m:node=node-0
	res, err := r.Run(sc, chaosPolicies()[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeCrashes == 0 {
		t.Fatal("node-kill profile crashed no node; injection not active")
	}
	recovery := recoveryStats(seriesPoints(res.Cluster, "app/web/ready"), 30*time.Minute)
	if bound := 8 * sc.ControlInterval; recovery > bound {
		t.Errorf("ready replicas took %v to reconverge after node kill, want <= %v (8 control periods)",
			recovery, bound)
	}
}

// TestChaosSoak runs the everything-at-once profile end to end and
// checks the run survives with every fault class actually exercised and
// the degraded-mode machinery engaged where expected.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	r := NewRunner(0)
	sc := chaosBase(9)
	sc.Name = "soak"
	sc.Duration = 2 * time.Hour
	sc.Chaos = "mixed"
	// Every tick of the soak re-derives the dense tick state from the
	// object graph: crashes, evictions and re-binds are where a cache
	// invalidation would be missed.
	res, err := r.RunWithHooks(sc, chaosPolicies()[0], invariantHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesDropped == 0 {
		t.Error("soak: no samples dropped")
	}
	if res.ActuationFaults == 0 {
		t.Error("soak: no actuation faults landed")
	}
	if res.NodeCrashes == 0 {
		t.Error("soak: node crash window never fired")
	}
	if res.Retries == 0 {
		t.Error("soak: retry ladder never engaged despite act-reject faults")
	}
	// The service must end the run alive and observable.
	if len(res.Apps) != 1 || res.Apps[0].MeanReplicas <= 0 {
		t.Errorf("soak: app results %+v", res.Apps)
	}
}
