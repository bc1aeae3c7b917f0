package control

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"evolve/internal/obs"
	"evolve/internal/sim"
)

// fakePlant is a scriptable plant: per-app observation templates, a
// settable blind window, and a failure budget for ApplyDecision.
type fakePlant struct {
	apps    []string
	now     func() time.Duration
	blind   map[string]bool
	applied map[string][]Decision
	// failures is the number of upcoming ApplyDecision calls (per app)
	// that fail transiently; fatalErr, when set, fails them permanently.
	failures map[string]int
	fatalErr error
	observes int
	events   []string
}

func newFakePlant(now func() time.Duration, apps ...string) *fakePlant {
	return &fakePlant{
		apps: apps, now: now,
		blind:    make(map[string]bool),
		applied:  make(map[string][]Decision),
		failures: make(map[string]int),
	}
}

func (p *fakePlant) AppNames() []string { return p.apps }

func (p *fakePlant) Observe(app string) (Observation, error) {
	p.observes++
	o := sighted(3)
	o.App, o.Now = app, p.now()
	if p.blind[app] {
		o.Samples = 0
	}
	return o, nil
}

func (p *fakePlant) ApplyDecision(app string, d Decision) error {
	if p.fatalErr != nil {
		return p.fatalErr
	}
	if p.failures[app] > 0 {
		p.failures[app]--
		return transientErr{app}
	}
	p.applied[app] = append(p.applied[app], d)
	return nil
}

func (p *fakePlant) RecordReason(app string, r Reason) {
	p.events = append(p.events, "autoscale/"+app+": "+r.String())
}

func (p *fakePlant) RecordHealth(app string, h Health) {
	p.events = append(p.events, "degraded-mode/"+app+": "+h.String())
}

type transientErr struct{ app string }

func (e transientErr) Error() string   { return "injected flake for " + e.app }
func (e transientErr) Transient() bool { return true }

func TestIsTransient(t *testing.T) {
	if !IsTransient(transientErr{"a"}) {
		t.Error("direct transient error not recognised")
	}
	if !IsTransient(fmt.Errorf("wrap: %w", transientErr{"a"})) {
		t.Error("wrapped transient error not recognised")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error misclassified as transient")
	}
	if IsTransient(nil) {
		t.Error("nil misclassified as transient")
	}
}

func newTestLoop(t *testing.T, cfg LoopConfig, apps ...string) (*sim.Engine, *fakePlant, *Loop) {
	t.Helper()
	eng := sim.NewEngine(1)
	plant := newFakePlant(eng.Now, apps...)
	l := NewLoop(eng, plant, cfg)
	for _, app := range apps {
		l.Add(app, &countingController{})
	}
	l.OnFatal(func(err error) { t.Fatalf("loop fatal: %v", err) })
	l.Start()
	return eng, plant, l
}

// TestLoopDrivesControllers: the loop observes, decides and actuates
// every app each period, in app order.
func TestLoopDrivesControllers(t *testing.T) {
	eng, plant, l := newTestLoop(t, LoopConfig{Interval: 15 * time.Second}, "a", "b")
	eng.Run(time.Minute) // periods at 15s, 30s, 45s, 60s

	if got := len(plant.applied["a"]); got != 4 {
		t.Errorf("app a actuated %d times, want 4", got)
	}
	if got := len(plant.applied["b"]); got != 4 {
		t.Errorf("app b actuated %d times, want 4", got)
	}
	if s := l.Stats(); s.Decisions != 8 || s.Retries != 0 || s.DegradedPeriods != 0 {
		t.Errorf("stats = %+v, want 8 clean decisions", s)
	}
	d, ok := l.LastDecision("a")
	if !ok || d.Replicas != 4 {
		t.Errorf("LastDecision(a) = %+v, %v; want 4 replicas", d, ok)
	}
	if c, ok := l.Controller("a"); !ok || c.Name() != "counting" {
		t.Errorf("Controller(a) = %v, %v", c, ok)
	}
}

// TestLoopRetriesTransientFailures: a transient actuation failure is
// retried with backoff and eventually lands; stats count the retries.
func TestLoopRetriesTransientFailures(t *testing.T) {
	tr := obs.New(256)
	eng, plant, l := newTestLoop(t, LoopConfig{
		Interval: time.Minute,
		Retry:    RetryConfig{MaxAttempts: 3, Base: time.Second, Cap: 10 * time.Second, Jitter: 0.1},
	}, "a")
	l.SetTracer(tr)
	plant.failures["a"] = 2 // first period: fail twice, then succeed

	eng.Run(90 * time.Second) // one control period plus retry room
	if got := len(plant.applied["a"]); got != 1 {
		t.Fatalf("applied %d decisions, want 1 (after retries)", got)
	}
	if s := l.Stats(); s.Retries != 2 || s.Abandoned != 0 {
		t.Errorf("stats = %+v, want 2 retries, 0 abandoned", s)
	}
	if evs := tr.Snapshot(obs.Filter{Kind: "fault", Verb: obs.VerbRetry}); len(evs) != 2 {
		t.Errorf("traced %d retry events, want 2", len(evs))
	}
}

// TestLoopAbandonsAfterBudget: persistent failures exhaust the retry
// ladder and are abandoned, not retried forever.
func TestLoopAbandonsAfterBudget(t *testing.T) {
	tr := obs.New(256)
	eng, plant, l := newTestLoop(t, LoopConfig{
		Interval: time.Hour, // one period only
		Retry:    RetryConfig{MaxAttempts: 2, Base: time.Second, Cap: 10 * time.Second, Jitter: 0.1},
	}, "a")
	l.SetTracer(tr)
	plant.failures["a"] = 100

	eng.Run(90 * time.Minute)
	if got := len(plant.applied["a"]); got != 0 {
		t.Fatalf("applied %d decisions, want 0", got)
	}
	if s := l.Stats(); s.Abandoned != 1 || s.Retries != 2 {
		t.Errorf("stats = %+v, want 2 retries then 1 abandon", s)
	}
	if evs := tr.Snapshot(obs.Filter{Kind: "fault", Verb: obs.VerbAbandon}); len(evs) != 1 {
		t.Errorf("traced %d abandon events, want 1", len(evs))
	}
}

// TestLoopRetrySuperseded: a pending retry is dropped when the next
// control period takes a fresh decision for the app.
func TestLoopRetrySuperseded(t *testing.T) {
	eng, plant, l := newTestLoop(t, LoopConfig{
		Interval: 10 * time.Second,
		// Base backoff longer than the control period: the retry always
		// lands after the next decision and must yield to it.
		Retry: RetryConfig{MaxAttempts: 3, Base: 30 * time.Second, Cap: time.Minute, Jitter: 0.01},
	}, "a")
	plant.failures["a"] = 1

	eng.Run(2 * time.Minute)
	s := l.Stats()
	if s.Retries != 1 {
		t.Errorf("retries = %d, want 1", s.Retries)
	}
	// 12 periods, first failed and its retry was superseded: 11 applies.
	if got := len(plant.applied["a"]); got != 11 {
		t.Errorf("applied %d decisions, want 11 (superseded retry never lands)", got)
	}
}

// TestLoopFatalOnPermanentError: non-transient actuation errors go to
// the fatal handler instead of the retry ladder.
func TestLoopFatalOnPermanentError(t *testing.T) {
	eng := sim.NewEngine(1)
	plant := newFakePlant(eng.Now, "a")
	plant.fatalErr = errors.New("invalid decision")
	l := NewLoop(eng, plant, LoopConfig{Interval: time.Minute})
	l.Add("a", &countingController{})
	var fatal error
	l.OnFatal(func(err error) { fatal = err; eng.Stop() })
	l.Start()
	eng.Run(5 * time.Minute)
	if fatal == nil || !strings.Contains(fatal.Error(), "invalid decision") {
		t.Fatalf("fatal = %v, want wrapped permanent error", fatal)
	}
	if s := l.Stats(); s.Retries != 0 {
		t.Errorf("permanent error was retried %d times", s.Retries)
	}
}

// TestLoopDegradedTransitions: blinding the plant past the budget emits
// one degraded event (trace + journal), holds capacity, and restoring
// sight emits the recovery event.
func TestLoopDegradedTransitions(t *testing.T) {
	tr := obs.New(256)
	eng, plant, l := newTestLoop(t, LoopConfig{
		Interval: time.Minute,
		Harden:   HardenConfig{MaxBlind: 2},
	}, "a")
	l.SetTracer(tr)

	eng.Run(2 * time.Minute) // two sighted periods
	plant.blind["a"] = true
	eng.Run(8 * time.Minute) // six blind periods: degraded from the third
	plant.blind["a"] = false
	eng.Run(10 * time.Minute)

	s := l.Stats()
	if s.DegradedTransitions != 1 {
		t.Errorf("DegradedTransitions = %d, want 1", s.DegradedTransitions)
	}
	if s.DegradedPeriods != 4 {
		t.Errorf("DegradedPeriods = %d, want 4 (blind periods 3..6)", s.DegradedPeriods)
	}
	if deg := tr.Snapshot(obs.Filter{Kind: "fault", Verb: obs.VerbDegraded}); len(deg) != 1 {
		t.Errorf("traced %d degraded events, want 1", len(deg))
	}
	if rec := tr.Snapshot(obs.Filter{Kind: "fault", Verb: obs.VerbRecovered}); len(rec) != 1 {
		t.Errorf("traced %d recovered events, want 1", len(rec))
	}
	var journaled bool
	for _, e := range plant.events {
		if strings.HasPrefix(e, "degraded-mode/a") {
			journaled = true
		}
	}
	if !journaled {
		t.Errorf("no degraded-mode journal entry; events: %v", plant.events)
	}
	if h, ok := l.Hardened("a"); !ok || h.Degraded() {
		t.Errorf("Hardened(a) = %v degraded=%v after recovery", ok, h != nil && h.Degraded())
	}
}

// TestLoopDeterministic: two identically-seeded loops over flaky plants
// produce identical decision/retry sequences.
func TestLoopDeterministic(t *testing.T) {
	run := func() (LoopStats, []Decision) {
		eng := sim.NewEngine(7)
		plant := newFakePlant(eng.Now, "a")
		plant.failures["a"] = 5
		l := NewLoop(eng, plant, LoopConfig{Interval: 30 * time.Second, Seed: 42})
		l.Add("a", &countingController{})
		l.Start()
		eng.Run(10 * time.Minute)
		return l.Stats(), plant.applied["a"]
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 {
		t.Errorf("stats diverged: %+v vs %+v", s1, s2)
	}
	if len(d1) != len(d2) {
		t.Fatalf("decision counts diverged: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Errorf("decision %d diverged: %+v vs %+v", i, d1[i], d2[i])
		}
	}
}
