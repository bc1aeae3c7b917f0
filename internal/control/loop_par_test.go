package control

import (
	"fmt"
	"testing"
	"time"

	"evolve/internal/sim"
)

// Gates for the control loop's evaluate/apply step: worker-count
// invariance of every observable output, an independent check of the
// apply walk's order and content, and the 1-worker allocation budget.

// quietPlant is a minimal plant for worker sweeps: per-app replica
// state that decisions actually move, plus an order log so actuation
// sequence (not just content) is compared across worker counts.
type quietPlant struct {
	apps     []string
	now      func() time.Duration
	replicas map[string]int
	order    []string
	events   []string
}

func newQuietPlant(now func() time.Duration, n int) *quietPlant {
	p := &quietPlant{now: now, replicas: make(map[string]int, n)}
	for i := 0; i < n; i++ {
		app := fmt.Sprintf("app-%02d", i)
		p.apps = append(p.apps, app)
		p.replicas[app] = 1 + i%5
	}
	return p
}

func (p *quietPlant) Apps() []string { return p.apps }

func (p *quietPlant) Observe(app string) (Observation, error) {
	o := sighted(p.replicas[app])
	o.App, o.Now = app, p.now()
	return o, nil
}

func (p *quietPlant) ApplyDecision(app string, d Decision) error {
	p.replicas[app] = d.Replicas
	p.order = append(p.order, fmt.Sprintf("%s=%d", app, d.Replicas))
	return nil
}

func (p *quietPlant) RecordEvent(kind, object, message string) {
	p.events = append(p.events, kind+"/"+object+": "+message)
}

// actuation is one ApplyDecision the plant received.
type actuation struct {
	at  time.Duration
	app string
	d   Decision
}

// sweepPlant logs every actuation with its period; recordingController
// logs every decision it returns. Each app owns its controller, so the
// evaluate fan-out writes each decision log from one goroutine only.
type sweepPlant struct {
	*quietPlant
	acts []actuation
}

func (p *sweepPlant) ApplyDecision(app string, d Decision) error {
	p.acts = append(p.acts, actuation{at: p.now(), app: app, d: d})
	return p.quietPlant.ApplyDecision(app, d)
}

type recordingController struct {
	countingController
	decided []Decision
}

func (c *recordingController) Decide(o Observation) Decision {
	d := c.countingController.Decide(o)
	c.decided = append(c.decided, d)
	return d
}

// runWorkerSweep drives one loop at the given worker count, checks the
// apply walk against the controllers' own decision logs, and returns
// the loop's observable fingerprint: actuation order, final replica
// state, events and stats, all rendered to a string.
func runWorkerSweep(t *testing.T, workers int) string {
	t.Helper()
	eng := sim.NewEngine(7)
	plant := &sweepPlant{quietPlant: newQuietPlant(eng.Now, 23)}
	l := NewLoop(eng, plant, LoopConfig{Interval: 15 * time.Second, Workers: workers})
	ctrls := make(map[string]*recordingController, len(plant.apps))
	for _, app := range plant.apps {
		ctrls[app] = &recordingController{}
		l.Add(app, ctrls[app])
	}
	l.OnFatal(func(err error) { t.Fatalf("loop fatal (workers=%d): %v", workers, err) })
	l.Start()
	eng.Run(5 * time.Minute)

	// Each period actuates every app exactly once, in the plant's
	// canonical (sorted) app order, with the decision that app's
	// controller returned that period.
	const periods = 20 // 5m / 15s
	if want := periods * len(plant.apps); len(plant.acts) != want {
		t.Fatalf("workers=%d: %d actuations, want %d", workers, len(plant.acts), want)
	}
	for i, a := range plant.acts {
		period, k := i/len(plant.apps), i%len(plant.apps)
		if wantAt := time.Duration(period+1) * 15 * time.Second; a.at != wantAt || a.app != plant.apps[k] {
			t.Fatalf("workers=%d: actuation %d is %s at %v, want %s at %v",
				workers, i, a.app, a.at, plant.apps[k], wantAt)
		}
		if got := ctrls[a.app].decided; period >= len(got) || got[period] != a.d {
			t.Fatalf("workers=%d: %s period %d actuated %+v, controller decided %+v", workers, a.app, period, a.d, got)
		}
	}
	return fmt.Sprintf("order=%v\nreplicas=%v\nevents=%v\nstats=%+v",
		plant.order, fmt.Sprintf("%v", plant.replicas), plant.events, l.Stats())
}

// TestLoopWorkersDeterministic: the evaluate/apply step must actuate the
// same decisions in the same order at every worker count, including
// counts that do not divide the app count.
func TestLoopWorkersDeterministic(t *testing.T) {
	want := runWorkerSweep(t, 1)
	for _, workers := range []int{2, 4, 7} {
		if got := runWorkerSweep(t, workers); got != want {
			t.Errorf("workers=%d: output diverged from the 1-worker loop\n got: %s\nwant: %s", workers, got, want)
		}
	}
}

// TestControlEvalAllocs pins the steady-state allocation budget of the
// 1-worker control step (inline evaluate, then the apply walk): the
// configuration every default scenario takes.
// The plant here is deliberately allocation-free so the measurement
// isolates the loop itself (observe → harden → decide → actuate).
func TestControlEvalAllocs(t *testing.T) {
	eng := sim.NewEngine(3)
	plant := newQuietPlant(eng.Now, 16)
	plant.order = make([]string, 0, 1<<16)
	plant.events = make([]string, 0, 1<<10)
	l := NewLoop(eng, plant, LoopConfig{Interval: 15 * time.Second, Workers: 1})
	for _, app := range plant.apps {
		l.Add(app, &countingController{})
	}
	l.OnFatal(func(err error) { t.Fatalf("loop fatal: %v", err) })
	l.Start()
	horizon := time.Minute
	eng.Run(horizon) // warmup: scratch buffers, timer chain, map growth

	allocs := testing.AllocsPerRun(50, func() {
		horizon += 15 * time.Second
		eng.Run(horizon)
	})
	t.Logf("1-worker control period: %.1f allocs (16 apps)", allocs)
	// Budget: the order-log fmt.Sprintf in the plant costs 2 allocations
	// per app (measured 32.0 for 16 apps); the loop machinery itself
	// must add nothing on top. 40 leaves slack for fmt internals
	// shifting across Go releases while still catching a single new
	// per-app allocation in the loop (which would read 48+).
	if maxAllocs := 40.0; allocs > maxAllocs {
		t.Errorf("1-worker control period allocates %.1f times, want <= %.0f", allocs, maxAllocs)
	}
}
