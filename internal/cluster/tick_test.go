package cluster

import (
	"testing"
	"time"

	"evolve/internal/resource"
)

// TestTickClearsStaleUsageDuringOutage is a regression test for the
// no-capacity branch of tick: when a service has no serving replica,
// any usage still recorded on its pods (from a period when they did
// serve) must be cleared — as seen through Pods() and the node's Usage —
// otherwise the dead usage keeps feeding node interference for every
// tick of the outage.
func TestTickClearsStaleUsageDuringOutage(t *testing.T) {
	c := newTestCluster(t, 1)
	spec := testService("web")
	spec.InitialReplicas = 1
	spec.StartupDelay = time.Minute // replica binds but stays not-ready
	if err := c.CreateService(spec); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoadFunc("web", func(time.Duration) float64 { return 100 }); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Engine().Run(c.cfg.MetricsInterval) // first tick: bound, still starting

	pods := c.byApp["web"]
	if len(pods) != 1 {
		t.Fatalf("pods = %d, want 1", len(pods))
	}
	p := pods[0]
	if p.Phase != Running || p.ReadyAt <= c.now() {
		t.Fatalf("replica should be bound but not ready: phase=%v readyAt=%v now=%v", p.Phase, p.ReadyAt, c.now())
	}
	// Plant the historical bug state: a non-serving replica still carrying
	// usage from an earlier serving period.
	p.Usage = resource.New(500, 1<<30, 1e6, 1e6)
	c.update(p)

	c.Engine().Run(2 * c.cfg.MetricsInterval) // outage tick must clear it

	// Read back through the public accessor, which materialises each
	// pod's usage from the tick's dense state.
	for _, got := range c.Pods() {
		if got == p && !got.Usage.IsZero() {
			t.Errorf("stale usage not cleared during outage: %v", got.Usage)
		}
	}
	if got := c.nodes["node-0"].Usage; !got.IsZero() {
		t.Errorf("node usage should be zero during outage, got %v", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
