package main

import (
	"math"
	"testing"
	"time"

	"evolve/internal/baseline"
	"evolve/internal/ckpt"
	"evolve/internal/control"
	"evolve/internal/core"
	"evolve/internal/obs"
)

// Fakes covering the combinations of optional controller interfaces the
// real policies do not: static implements none, HPA only StateSaver,
// pid-cpu-only Traceable and StateSaver, evolve all three.
type fakeBase struct{}

func (fakeBase) Name() string                                  { return "fake" }
func (fakeBase) Decide(o control.Observation) control.Decision { return control.Hold(o) }

type explains struct{}

func (explains) Rationale() string { return "because" }

type traces struct{}

func (traces) DecisionTrace() obs.ControlTrace { return obs.ControlTrace{Stage: "steady"} }

type saves struct{}

func (saves) CkptSave(*ckpt.Writer)       {}
func (saves) CkptLoad(*ckpt.Reader) error { return nil }

type fakeE struct {
	fakeBase
	explains
}

type fakeET struct {
	fakeBase
	explains
	traces
}

type fakeES struct {
	fakeBase
	explains
	saves
}

type fakeT struct {
	fakeBase
	traces
}

// TestTimeControllerKeepsOptionalInterfaces pins that the timing
// wrapper implements exactly the optional interfaces the loop
// type-asserts on its inner controller, forwards them, and still times
// Decide. A wrapper that dropped one would move the traced run onto
// another code path without any report changing.
func TestTimeControllerKeepsOptionalInterfaces(t *testing.T) {
	ctrls := map[string]control.Controller{
		"static":       baseline.StaticFactory()("a"),
		"hpa":          baseline.HPAFactory(baseline.DefaultHPAConfig())("a"),
		"pid-cpu-only": core.SingleResourceFactory()("a"),
		"evolve":       core.Factory(core.DefaultConfig())("a"),
		"E":            fakeE{},
		"ET":           fakeET{},
		"ES":           fakeES{},
		"T":            fakeT{},
	}
	for name, inner := range ctrls {
		var ct callTimer
		w := timeController(inner, &ct)
		ex, isEx := inner.(control.Explainer)
		wex, wIsEx := w.(control.Explainer)
		if isEx != wIsEx {
			t.Errorf("%s: Explainer %v, wrapped %v", name, isEx, wIsEx)
		} else if isEx && ex.Rationale() != wex.Rationale() {
			t.Errorf("%s: Rationale not forwarded", name)
		}
		tr, isTr := inner.(control.Traceable)
		wtr, wIsTr := w.(control.Traceable)
		if isTr != wIsTr {
			t.Errorf("%s: Traceable %v, wrapped %v", name, isTr, wIsTr)
		} else if isTr && tr.DecisionTrace().Stage != wtr.DecisionTrace().Stage {
			t.Errorf("%s: DecisionTrace not forwarded", name)
		}
		_, isSS := inner.(control.StateSaver)
		if _, wIsSS := w.(control.StateSaver); isSS != wIsSS {
			t.Errorf("%s: StateSaver %v, wrapped %v", name, isSS, wIsSS)
		}
		if w.Name() != inner.Name() {
			t.Errorf("%s: Name %q, wrapped %q", name, inner.Name(), w.Name())
		}
		w.Decide(control.Observation{})
		if ct.calls != 1 {
			t.Errorf("%s: Decide timed %d times, want 1", name, ct.calls)
		}
	}
}

// TestTimedPlantKeepsPlantInterfaces pins the optional plant interfaces
// the loop type-asserts.
func TestTimedPlantKeepsPlantInterfaces(t *testing.T) {
	var p control.Plant = &timedPlant{}
	if _, ok := p.(control.Recorder); !ok {
		t.Error("timedPlant does not implement control.Recorder")
	}
	if _, ok := p.(control.BatchActuator); !ok {
		t.Error("timedPlant does not implement control.BatchActuator")
	}
}

// shrink cuts a workload to test size.
func shrink(t *testing.T, name string, services, nodes int, horizon time.Duration) *world {
	t.Helper()
	w, err := newWorld(name, 5)
	if err != nil {
		t.Fatal(err)
	}
	w.services = w.services[:services]
	if nodes > 0 {
		w.opts.Nodes = nodes
	}
	w.horizon = horizon
	w.slices = 10
	return w
}

// TestMirrorMatchesFacade runs small worlds both ways under both
// mirrored policies and requires byte-identical reports.
func TestMirrorMatchesFacade(t *testing.T) {
	for _, name := range []string{"fleet-static", "many-apps"} {
		w := shrink(t, name, 8, 8, 30*time.Minute)
		cl, err := w.build(sinks{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := buildMirror(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []time.Duration{tickEvery, 10 * time.Minute, 20 * time.Minute} {
			if err := cl.Run(d); err != nil {
				t.Fatal(err)
			}
			if err := m.run(d); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := m.report().String(), cl.Report().String(); got != want {
			t.Errorf("%s: mirror report\n%s\nfacade report\n%s", name, got, want)
		}
		if m.decide.calls == 0 || m.plant.observe.calls == 0 || m.plant.actuate.calls == 0 {
			t.Errorf("%s: hooks not reached: decide %d, observe %d, actuate %d",
				name, m.decide.calls, m.plant.observe.calls, m.plant.actuate.calls)
		}
	}
}

// TestMirrorRefusesFacadeOnlyFeatures: a world the mirror cannot
// rebuild must fail loudly, not run a different world.
func TestMirrorRefusesFacadeOnlyFeatures(t *testing.T) {
	w, err := newWorld("converged-day", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildMirror(w); err == nil {
		t.Error("mirror built converged-day, which has chaos, checkpoints, tracing and jobs")
	}
}

// TestRunsPassTheirChecks runs both modes on shrunk workloads: every
// correctness check passes, every end-to-end metric is positive, and
// the traced split adds up to the traced wall time.
func TestRunsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulated hours")
	}
	for _, w := range []*world{
		shrink(t, "converged-day", 4, 0, 2*time.Hour),
		shrink(t, "fleet-static", 4, 40, 20*time.Minute),
		shrink(t, "many-apps", 16, 16, 20*time.Minute),
	} {
		var l ledger
		e2e, err := untracedRuns(w, time.Nanosecond, &l)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for name, m := range e2e {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}
		layers, err := tracedRun(w, &l)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if l.failed != 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, l.failed, l.attempted)
		}
		if len(layers) != len(perLayerNames) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(layers), len(perLayerNames))
		}
		sum := 0.0
		for _, name := range []string{
			"cluster.tick_ms_per_sim_hour", "sched.drain_ms_per_sim_hour", "control.ms_per_sim_hour",
			"ckpt.ms_per_sim_hour", "obs.sink_ms_per_sim_hour", "probe_ms_per_sim_hour",
			"unattributed_ms_per_sim_hour",
		} {
			sum += layers[name].Value
		}
		if total := layers["traced_ms_per_sim_hour"].Value; math.Abs(sum-total) > 1e-6*total {
			t.Errorf("%s: layers sum to %v ms, traced wall %v ms", w.name, sum, total)
		}
	}
}
