package core

import (
	"math"
	"time"

	"evolve/internal/control"
	"evolve/internal/obs"
	"evolve/internal/pid"
	"evolve/internal/resource"
)

// Config parameterises the EVOLVE controller. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Multi configures the multi-resource adaptive PID stage.
	Multi pid.MultiConfig

	// UtilTarget is the per-resource utilisation the controller steers
	// allocations towards (shared with the PID slack stage).
	UtilTarget float64

	// Feedforward enables the learned demand-model floor, which
	// pre-provisions for observed load before latency degrades.
	Feedforward bool
	// ModelAlpha is the demand-model EWMA factor.
	ModelAlpha float64

	// Horizontal enables replica scaling. When vertical scaling
	// saturates against the per-replica ceiling, replicas are added;
	// when the model says fewer replicas suffice, they are removed
	// after ScaleInHold consecutive eligible decisions.
	Horizontal bool
	// ScaleOutErr is the PLO error above which a ceiling-saturated
	// application scales out immediately.
	ScaleOutErr float64
	// ScaleInHold is the number of consecutive scale-in-eligible
	// decisions required before removing replicas (flap damping).
	ScaleInHold int
	// ScaleInMargin inflates the modelled replica requirement before
	// scale-in so the system keeps headroom (e.g. 1.25).
	ScaleInMargin float64
}

// DefaultConfig returns the configuration used across the evaluation.
func DefaultConfig() Config {
	mc := pid.DefaultMultiConfig()
	mc.Controller.OutMin = -0.25
	mc.Controller.OutMax = 1.0
	mc.Controller.Gains = pid.Gains{Kp: 0.6, Ki: 0.15, Kd: 0.05}
	mc.Controller.DerivativeTau = 10 * time.Second
	return Config{
		Multi:         mc,
		UtilTarget:    0.7,
		Feedforward:   true,
		ModelAlpha:    0.25,
		Horizontal:    true,
		ScaleOutErr:   0.1,
		ScaleInHold:   3,
		ScaleInMargin: 1.25,
	}
}

// Autoscaler is the EVOLVE controller for one application. It implements
// control.Controller.
type Autoscaler struct {
	app   string
	cfg   Config
	multi *pid.Multi
	model *DemandModel

	scaleInStreak int
	decisions     int
	reason        control.Reason
	lastTrace     obs.ControlTrace
	// effUtil is the adaptive utilisation setpoint: it starts at
	// cfg.UtilTarget and backs off (AIMD) whenever running that hot
	// violates the PLO — tail-latency objectives bound the feasible
	// utilisation, and the bound is discovered, not configured.
	effUtil float64
}

// New builds an autoscaler for the application. Out-of-range tuning
// fields fall back to their defaults, so a partially-filled Config is
// always safe to use.
func New(app string, cfg Config) *Autoscaler {
	def := DefaultConfig()
	if cfg.UtilTarget <= 0 || cfg.UtilTarget >= 1 {
		cfg.UtilTarget = def.UtilTarget
	}
	if cfg.ScaleOutErr <= 0 {
		cfg.ScaleOutErr = def.ScaleOutErr
	}
	if cfg.ScaleInHold <= 0 {
		cfg.ScaleInHold = def.ScaleInHold
	}
	if cfg.ScaleInMargin < 1 {
		cfg.ScaleInMargin = def.ScaleInMargin
	}
	if cfg.Multi.Controller.OutMax <= cfg.Multi.Controller.OutMin {
		cfg.Multi = def.Multi
	}
	cfg.Multi.UtilTarget = cfg.UtilTarget
	return &Autoscaler{
		app:     app,
		cfg:     cfg,
		multi:   pid.MustMulti(cfg.Multi),
		model:   NewDemandModel(cfg.ModelAlpha),
		effUtil: cfg.UtilTarget,
	}
}

// Factory returns a control.Factory for this configuration.
func Factory(cfg Config) control.Factory {
	return func(app string) control.Controller { return New(app, cfg) }
}

// Name implements control.Controller.
func (a *Autoscaler) Name() string { return "evolve" }

// Model exposes the learned demand model (tests, introspection).
func (a *Autoscaler) Model() *DemandModel { return a.model }

// Adaptations returns the cumulative PID gain adaptations.
func (a *Autoscaler) Adaptations() int { return a.multi.Adaptations() }

// Rationale explains the most recent decision in one line — what the
// controller saw and which stage drove the change. Empty until the first
// Decide. It renders the typed reason the decision carried.
func (a *Autoscaler) Rationale() string { return a.reason.String() }

// Decide implements control.Controller: one full control step.
func (a *Autoscaler) Decide(o control.Observation) control.Decision {
	if o.Interval <= 0 {
		return control.Hold(o)
	}
	a.decisions++
	a.model.Observe(o)

	perfErr := o.PerfError()
	alloc := o.Alloc

	// Stage 0 — adapt the utilisation setpoint (AIMD): back off
	// multiplicatively while the PLO is missed, creep back additively
	// while it is comfortably met. The steady-state setpoint is the
	// highest utilisation this application's objective tolerates.
	switch {
	case perfErr > 0.05:
		a.effUtil = math.Max(0.3, a.effUtil*0.93)
	case perfErr < -0.3:
		a.effUtil = math.Min(a.cfg.UtilTarget, a.effUtil+0.005)
	}
	a.multi.SetUtilTarget(a.effUtil)

	// Stage 1 — multi-resource adaptive PID on the PLO error.
	out := a.multi.Update(perfErr, o.Utilisation, o.Interval)
	grewKind, grewMax := resource.CPU, 0.0
	for _, k := range resource.Kinds() {
		alloc[k] *= 1 + out[k]
		if out[k] > grewMax {
			grewKind, grewMax = k, out[k]
		}
	}

	// Stage 2 — feedforward floor from the learned demand model: never
	// allocate below what the observed load is known to need. This is
	// what lets the controller ride a load ramp without waiting for the
	// PLO to degrade first.
	flooredKinds := 0
	if a.cfg.Feedforward {
		floor := a.model.Floor(o.OfferedLoad, maxInt(o.ReadyReplicas, 1), a.effUtil)
		for _, k := range resource.Kinds() {
			if floor[k] > alloc[k] {
				flooredKinds++
			}
		}
		alloc = alloc.Max(floor)
	}

	replicas := o.Replicas

	// Stage 3 — horizontal scaling.
	if a.cfg.Horizontal {
		replicas = a.horizontal(o, alloc, perfErr)
	}

	// Capacity-preserving scale-in: the surviving replicas must be sized
	// for the whole load *before* their siblings disappear, or the next
	// period starts with a self-inflicted saturation spike.
	if replicas < o.Replicas {
		floor := a.model.Floor(o.OfferedLoad*a.cfg.ScaleInMargin, replicas, a.effUtil)
		alloc = alloc.Max(floor)
	}

	d := o.Limits.Clamp(control.Decision{Replicas: replicas, Alloc: alloc})
	d.Reason = a.explain(o, d, perfErr, grewKind, grewMax, flooredKinds)
	a.reason = d.Reason
	a.lastTrace = obs.ControlTrace{
		Stage:        d.Reason.Code.String(),
		UtilTarget:   a.effUtil,
		Adaptations:  a.multi.Adaptations(),
		FlooredKinds: flooredKinds,
	}
	terms := a.multi.LastTerms()
	gains := a.multi.LastGains()
	for k := range terms {
		t, g := terms[k], gains[k]
		a.lastTrace.Terms[k] = obs.PIDTerm{Err: t.Err, P: t.P, I: t.I, D: t.D, Out: t.Out, Clamped: t.Clamped}
		a.lastTrace.Gains[k] = obs.GainSet{Kp: g.Kp, Ki: g.Ki, Kd: g.Kd}
	}
	return d
}

// DecisionTrace implements control.Traceable.
func (a *Autoscaler) DecisionTrace() obs.ControlTrace { return a.lastTrace }

// horizontal decides the replica count: scale out when vertical room is
// exhausted and the PLO is suffering, scale in when the demand model says
// fewer replicas comfortably suffice.
func (a *Autoscaler) horizontal(obs control.Observation, wantAlloc resource.Vector, perfErr float64) int {
	replicas := obs.Replicas
	max := obs.Limits.MaxAlloc

	// Ceiling saturation: any dimension of the desired allocation at or
	// beyond ~95% of the per-replica ceiling.
	saturated := false
	for _, k := range resource.Kinds() {
		if max[k] > 0 && wantAlloc[k] >= 0.95*max[k] {
			saturated = true
			break
		}
	}
	if saturated && perfErr > a.cfg.ScaleOutErr {
		a.scaleInStreak = 0
		// Prefer the model's estimate when available; otherwise step.
		if n := a.model.ReplicasFor(obs.OfferedLoad, max, a.effUtil); n > replicas {
			return n
		}
		return replicas + 1
	}

	// Scale-in: the model must say that (replicas-1) suffices with
	// margin, and the PLO must currently be comfortably met.
	if replicas > obs.Limits.MinReplicas && perfErr < 0 && a.model.Ready() {
		needed := a.model.ReplicasFor(obs.OfferedLoad*a.cfg.ScaleInMargin, max, a.effUtil)
		if needed < replicas {
			a.scaleInStreak++
			if a.scaleInStreak >= a.cfg.ScaleInHold {
				a.scaleInStreak = 0
				return maxInt(needed, obs.Limits.MinReplicas)
			}
		} else {
			a.scaleInStreak = 0
		}
	} else {
		a.scaleInStreak = 0
	}
	return replicas
}

// explain summarises one control step as a typed reason: the stage
// that drove it (named in the decision trace) and the numbers its
// journal line is rendered from.
func (a *Autoscaler) explain(o control.Observation, d control.Decision, perfErr float64, grewKind resource.Kind, grewMax float64, flooredKinds int) control.Reason {
	switch {
	case d.Replicas > o.Replicas:
		return control.Reason{Code: control.ReasonScaleOut, N: [2]int{o.Replicas, d.Replicas}, X: [3]float64{perfErr}}
	case d.Replicas < o.Replicas:
		return control.Reason{Code: control.ReasonScaleIn, N: [2]int{o.Replicas, d.Replicas}, X: [3]float64{o.OfferedLoad}}
	case flooredKinds > 0:
		return control.Reason{Code: control.ReasonFloor, N: [2]int{flooredKinds}, X: [3]float64{o.OfferedLoad, perfErr}}
	case grewMax > 0.02:
		return control.Reason{Code: control.ReasonGrow, Kind: grewKind, X: [3]float64{grewMax * 100, perfErr, o.Utilisation[grewKind]}}
	case perfErr <= 0:
		return control.Reason{Code: control.ReasonSteady, X: [3]float64{perfErr, a.effUtil}}
	default:
		return control.Reason{Code: control.ReasonHold, X: [3]float64{perfErr}}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SingleResource is the scalar-PID ablation: the same adaptive PID loop
// applied to CPU only, with the other dimensions frozen at their initial
// allocation. It isolates the contribution of the multi-resource
// extension (Table 2).
type SingleResource struct {
	app       string
	ctrl      *pid.Controller
	tun       *pid.Tuner
	lastTrace obs.ControlTrace
}

// NewSingleResource builds the ablation controller.
func NewSingleResource(app string) *SingleResource {
	cfg := DefaultConfig().Multi.Controller
	ctrl := pid.MustController(cfg)
	return &SingleResource{
		app:  app,
		ctrl: ctrl,
		tun:  pid.NewTuner(ctrl, pid.DefaultTunerConfig()),
	}
}

// SingleResourceFactory returns a control.Factory for the ablation.
func SingleResourceFactory() control.Factory {
	return func(app string) control.Controller { return NewSingleResource(app) }
}

// Name implements control.Controller.
func (s *SingleResource) Name() string { return "pid-cpu-only" }

// Decide implements control.Controller.
func (s *SingleResource) Decide(o control.Observation) control.Decision {
	if o.Interval <= 0 {
		return control.Hold(o)
	}
	// Same error shaping as the multi-resource loop — PLO error gated by
	// utilisation, plus slack/headroom regulation — but applied to the
	// CPU dimension alone.
	e := o.PerfError()
	cpuUtil := o.Utilisation[resource.CPU]
	if e < 0 && cpuUtil >= 0.7 {
		e = 0
	}
	if dev := cpuUtil - 0.7; dev > 0 || e <= 0.1 {
		e += 0.25 * math.Max(dev, -1)
	}
	out := s.ctrl.Update(0, -e, o.Interval)
	s.tun.Observe(e)
	alloc := o.Alloc
	alloc[resource.CPU] *= 1 + out

	stage := "steady"
	switch {
	case out > 0:
		stage = "grow"
	case out < 0:
		stage = "scale-in"
	}
	s.lastTrace = obs.ControlTrace{Stage: stage, UtilTarget: 0.7, Adaptations: s.tun.Adaptations()}
	t, g := s.ctrl.LastTerm(), s.ctrl.Gains()
	s.lastTrace.Terms[resource.CPU] = obs.PIDTerm{Err: t.Err, P: t.P, I: t.I, D: t.D, Out: t.Out, Clamped: t.Clamped}
	s.lastTrace.Gains[resource.CPU] = obs.GainSet{Kp: g.Kp, Ki: g.Ki, Kd: g.Kd}

	return o.Limits.Clamp(control.Decision{Replicas: o.Replicas, Alloc: alloc})
}

// DecisionTrace implements control.Traceable.
func (s *SingleResource) DecisionTrace() obs.ControlTrace { return s.lastTrace }
