package control

import (
	"fmt"
	"testing"
	"time"

	"evolve/internal/sim"
)

// Gates for the control loop's evaluate/apply step: an independent
// check of the apply walk's order and content, replay determinism, and
// the step's allocation budget.

// quietPlant is a minimal, allocation-free plant: per-app replica state
// that decisions actually move, plus an order log so the actuation
// sequence (not just its content) is part of the fingerprint.
type quietPlant struct {
	apps     []string
	now      func() time.Duration
	replicas map[string]int
	order    []replicaSet
	events   []string
}

// replicaSet is one logged actuation: the app and its new replica count.
type replicaSet struct {
	app      string
	replicas int
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
	p.order = append(p.order, replicaSet{app: app, replicas: d.Replicas})
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
// logs every decision it returns.
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

// runInvariantLoop drives one loop over 23 apps for five minutes,
// checks the apply walk against the controllers' own decision logs, and
// returns the loop's observable fingerprint: actuation order, final
// replica state, events and stats, all rendered to a string.
func runInvariantLoop(t *testing.T) string {
	t.Helper()
	eng := sim.NewEngine(7)
	plant := &sweepPlant{quietPlant: newQuietPlant(eng.Now, 23)}
	l := NewLoop(eng, plant, LoopConfig{Interval: 15 * time.Second})
	ctrls := make(map[string]*recordingController, len(plant.apps))
	for _, app := range plant.apps {
		ctrls[app] = &recordingController{}
		l.Add(app, ctrls[app])
	}
	l.OnFatal(func(err error) { t.Fatalf("loop fatal: %v", err) })
	l.Start()
	eng.Run(5 * time.Minute)

	// Each period actuates every app exactly once, in the plant's
	// canonical (sorted) app order, with the decision that app's
	// controller returned that period.
	const periods = 20 // 5m / 15s
	if want := periods * len(plant.apps); len(plant.acts) != want {
		t.Fatalf("%d actuations, want %d", len(plant.acts), want)
	}
	for i, a := range plant.acts {
		period, k := i/len(plant.apps), i%len(plant.apps)
		if wantAt := time.Duration(period+1) * 15 * time.Second; a.at != wantAt || a.app != plant.apps[k] {
			t.Fatalf("actuation %d is %s at %v, want %s at %v", i, a.app, a.at, plant.apps[k], wantAt)
		}
		if got := ctrls[a.app].decided; period >= len(got) || got[period] != a.d {
			t.Fatalf("%s period %d actuated %+v, controller decided %+v", a.app, period, a.d, got)
		}
	}
	return fmt.Sprintf("order=%v\nreplicas=%v\nevents=%v\nstats=%+v",
		plant.order, fmt.Sprintf("%v", plant.replicas), plant.events, l.Stats())
}

// TestLoopApplyOrderDeterministic: every control period actuates every
// app once, in canonical order, with the decision its controller logged
// — and a second run from the same seed replays the same fingerprint.
func TestLoopApplyOrderDeterministic(t *testing.T) {
	want := runInvariantLoop(t)
	if got := runInvariantLoop(t); got != want {
		t.Errorf("replay diverged\n got: %s\nwant: %s", got, want)
	}
}

// TestControlEvalAllocs pins the steady-state allocation budget of the
// control step (inline evaluate, then the apply walk) at zero. The
// plant is allocation-free (its order log is preallocated), so the
// measurement isolates the loop itself: observe → harden → decide →
// actuate. A single new per-app allocation in the loop reads 16+.
func TestControlEvalAllocs(t *testing.T) {
	eng := sim.NewEngine(3)
	plant := newQuietPlant(eng.Now, 16)
	plant.order = make([]replicaSet, 0, 1<<16)
	plant.events = make([]string, 0, 1<<10)
	l := NewLoop(eng, plant, LoopConfig{Interval: 15 * time.Second})
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
	t.Logf("control period: %.1f allocs (16 apps)", allocs)
	if allocs > 0 {
		t.Errorf("control period allocates %.1f times, want 0", allocs)
	}
}
