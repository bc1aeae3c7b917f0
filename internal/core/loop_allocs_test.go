package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"evolve/internal/control"
	"evolve/internal/plo"
	"evolve/internal/resource"
	"evolve/internal/sim"
)

// journalPlant is an allocation-free plant for the real autoscaler:
// each app's offered load follows its own wave, decisions move its
// replicas and allocation, and latency rises with utilisation, so the
// autoscaler's stage and numbers change from period to period. It
// implements control.Recorder by keeping the typed reasons and stances
// in preallocated logs.
type journalPlant struct {
	apps    []string
	now     func() time.Duration
	state   map[string]*journalApp
	reasons []control.Reason
	health  []control.Health
}

type journalApp struct {
	phase    float64
	replicas int
	alloc    resource.Vector
}

func newJournalPlant(now func() time.Duration, n int) *journalPlant {
	p := &journalPlant{now: now, state: make(map[string]*journalApp, n)}
	for i := 0; i < n; i++ {
		app := fmt.Sprintf("app-%02d", i)
		p.apps = append(p.apps, app)
		p.state[app] = &journalApp{phase: float64(i), replicas: 2, alloc: resource.New(500, 512<<20, 20e6, 20e6)}
	}
	return p
}

func (p *journalPlant) AppNames() []string { return p.apps }

func (p *journalPlant) Observe(app string) (control.Observation, error) {
	st := p.state[app]
	now := p.now()
	load := 200 * (1 + 0.8*math.Sin(now.Minutes()/3+st.phase))
	perReplica := resource.New(2.5*load, 300<<20+1e6*load, 0.05e6*load, 0.1e6*load).Scale(1 / float64(st.replicas))
	util := resource.Vector{}
	for _, k := range resource.Kinds() {
		util[k] = perReplica[k] / st.alloc[k]
	}
	lat := 0.02 / math.Max(0.05, 1-math.Min(util[resource.CPU], 0.95))
	return control.Observation{
		App: app, Now: now, Interval: 15 * time.Second,
		PLO: plo.Latency(100 * time.Millisecond), SLI: lat,
		MeanLatency: lat, P99Latency: 2 * lat, Throughput: load, OfferedLoad: load,
		Samples: 3, ExpectedSamples: 3,
		Replicas: st.replicas, ReadyReplicas: st.replicas,
		Alloc: st.alloc, Usage: perReplica, Utilisation: util,
		Limits: control.Limits{MinReplicas: 1, MaxReplicas: 10,
			MinAlloc: resource.New(50, 64<<20, 1e6, 1e6),
			MaxAlloc: resource.New(4000, 8<<30, 500e6, 1e9)},
	}, nil
}

func (p *journalPlant) ApplyDecision(app string, d control.Decision) error {
	st := p.state[app]
	st.replicas, st.alloc = d.Replicas, d.Alloc
	return nil
}

func (p *journalPlant) RecordReason(app string, r control.Reason) {
	p.reasons = append(p.reasons, r)
}

func (p *journalPlant) RecordHealth(app string, h control.Health) {
	p.health = append(p.health, h)
}

// TestAutoscalerControlAllocs pins the steady-state allocation budget
// of a control period driven by the real EVOLVE autoscaler at zero,
// with tracing off and journaling on: observe → harden → decide
// (demand model, adaptive PID and gain tuner, typed reason) → actuate →
// compare the reason with the last one journaled → journal it. The
// plant allocates nothing, so a single allocation per app in the loop
// or the autoscaler reads 16+.
func TestAutoscalerControlAllocs(t *testing.T) {
	eng := sim.NewEngine(3)
	plant := newJournalPlant(eng.Now, 16)
	plant.reasons = make([]control.Reason, 0, 1<<16)
	l := control.NewLoop(eng, plant, control.LoopConfig{Interval: 15 * time.Second})
	for _, app := range plant.apps {
		l.Add(app, New(app, DefaultConfig()))
	}
	l.OnFatal(func(err error) { t.Fatalf("loop fatal: %v", err) })
	l.Start()
	horizon := 10 * time.Minute
	eng.Run(horizon) // warmup: model, tuner windows, scratch buffers, timer chain

	journaled := len(plant.reasons)
	allocs := testing.AllocsPerRun(50, func() {
		horizon += 15 * time.Second
		eng.Run(horizon)
	})
	journaled = len(plant.reasons) - journaled
	stages := map[control.ReasonCode]int{}
	for _, r := range plant.reasons {
		stages[r.Code]++
	}
	t.Logf("control period: %.1f allocs (16 apps); %d reasons journaled in 51 periods; stages %v", allocs, journaled, stages)
	if journaled < 51 {
		t.Errorf("only %d reasons journaled in 51 periods of 16 apps: the gate is not exercising the journal", journaled)
	}
	if allocs > 0 {
		t.Errorf("control period allocates %.1f times, want 0", allocs)
	}
}
