package evolve

import (
	"strings"
	"testing"
	"time"

	"evolve/internal/chaos"
)

// everyFault is a plan with one fault of every chaos kind, timed so that
// each lands inside a one-hour run: the sensor faults blind the
// controllers past their staleness budget, and the controller crash
// restarts from a periodic checkpoint.
const everyFault = "node-crash@10m-20m:node=node-0;metric-drop@5m-8m:p=1;metric-freeze@25m-28m:p=1;" +
	"metric-spike@12m-30m:p=0.2,mag=2;act-reject@10m-30m:p=0.3;act-delay@15m-35m:p=0.3,delay=10s;" +
	"act-partial@20m-40m:p=0.5,mag=0.5;ctrl-crash@45m-50m"

// TestJournalTextEveryFaultKind: under a fault of every chaos kind, the
// journal renders every line from its template with the right
// arguments: no message carries a fmt error marker such as
// "%!(MISSING)", and each fault shows up under its journal kind — the
// partial actuation as "actuation applied at N% (injected fault)".
func TestJournalTextEveryFaultKind(t *testing.T) {
	plan, err := chaos.Parse(everyFault)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[chaos.Kind]bool{}
	for _, f := range plan.Faults {
		covered[f.Kind] = true
	}
	for k := chaos.Kind(0); k.String() != "unknown"; k++ {
		if !covered[k] {
			t.Fatalf("the plan has no %s fault", k)
		}
	}

	c, err := New(Options{Seed: 5, Nodes: 4, Chaos: everyFault})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"web", "gateway"} {
		if err := c.AddService(ServiceOptions{Name: name, Archetype: name, BaseRate: 300}); err != nil {
			t.Fatal(err)
		}
		if err := c.SetLoad(name, Diurnal(150, 900, time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.EnableCheckpoints("", 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(time.Hour); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	var partial int
	for _, ev := range c.Events() {
		kinds[ev.Kind]++
		if strings.Contains(ev.Message, "%!") {
			t.Errorf("malformed journal line: %s %s %q", ev.Kind, ev.Object, ev.Message)
		}
		if strings.HasPrefix(ev.Message, "actuation applied at ") {
			partial++
			if !strings.HasSuffix(ev.Message, "% (injected fault)") {
				t.Errorf("partial actuation line %q", ev.Message)
			}
		}
	}
	for _, want := range []string{"node-failed", "node-restored", "pod-scheduled", "chaos-inject",
		"degraded-mode", "autoscale", "ctrl-crash", "ctrl-restart"} {
		if kinds[want] == 0 {
			t.Errorf("no %q line in the journal (kinds %v)", want, kinds)
		}
	}
	if partial == 0 {
		t.Errorf("no partial actuation in the journal (kinds %v)", kinds)
	}
}
