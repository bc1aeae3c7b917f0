// Package control defines the contract between the cluster substrate and
// the resource controllers (the EVOLVE core and every baseline): what a
// controller observes about an application each control period, and what
// it is allowed to decide. Keeping this boundary narrow means every
// controller — PID, threshold, percentile, static — is interchangeable in
// the harness and the comparison experiments stay honest.
package control

import (
	"errors"
	"time"

	"evolve/internal/obs"
	"evolve/internal/plo"
	"evolve/internal/resource"
)

// Limits bound what a controller may request for one application; they
// correspond to the namespace quotas / LimitRanges an operator would set.
type Limits struct {
	MinAlloc    resource.Vector // per-replica floor
	MaxAlloc    resource.Vector // per-replica ceiling
	MinReplicas int
	MaxReplicas int
}

// Clamp restricts a decision to the limits.
func (l Limits) Clamp(d Decision) Decision {
	if d.Replicas < l.MinReplicas {
		d.Replicas = l.MinReplicas
	}
	if l.MaxReplicas > 0 && d.Replicas > l.MaxReplicas {
		d.Replicas = l.MaxReplicas
	}
	d.Alloc = d.Alloc.Clamp(l.MinAlloc, l.MaxAlloc)
	return d
}

// Observation is everything a controller learns about one application at
// one control period. All SLI values are aggregated over the period.
type Observation struct {
	App      string
	Now      time.Duration
	Interval time.Duration

	PLO plo.PLO
	// SLI is the measured value of the PLO's metric (seconds for latency
	// metrics, ops/second for throughput).
	SLI float64
	// MeanLatency/P99Latency/Throughput give the full picture regardless
	// of which metric the PLO constrains (seconds, seconds, ops/sec).
	MeanLatency float64
	P99Latency  float64
	Throughput  float64
	// OfferedLoad is the measured arrival rate (ops/sec).
	OfferedLoad float64
	// Saturated reports whether the service ran beyond capacity at any
	// point in the period; usage-derived statistics are biased then.
	Saturated bool

	// Observation health: how much telemetry actually arrived this
	// period. ExpectedSamples counts the metric ticks the window spanned;
	// Samples the ones that were delivered; StaleSamples how many of the
	// delivered ones were stale substitutes (frozen sensor readings). A
	// fault-free window has Samples == ExpectedSamples and no stale ones.
	Samples         int
	ExpectedSamples int
	StaleSamples    int

	// Replicas is the desired replica count; ReadyReplicas the number
	// currently running.
	Replicas      int
	ReadyReplicas int
	// Alloc is the current per-replica allocation; Usage the mean
	// per-replica usage over the period; Utilisation is Usage/Alloc.
	Alloc       resource.Vector
	Usage       resource.Vector
	Utilisation resource.Vector

	Limits Limits
}

// PerfError returns the normalised PLO error for this observation:
// positive when the application needs more resources.
func (o Observation) PerfError() float64 { return o.PLO.Error(o.SLI) }

// Blind reports whether the window carried no usable telemetry: every
// expected sample was either dropped or a stale substitute. Deciding on
// a blind observation means deciding on noise; the Hardened wrapper
// freezes the controller instead.
func (o Observation) Blind() bool {
	return o.ExpectedSamples > 0 && o.Samples-o.StaleSamples <= 0
}

// Decision is what a controller wants the cluster to converge to.
type Decision struct {
	// Replicas is the desired replica count (horizontal).
	Replicas int
	// Alloc is the desired per-replica allocation (vertical).
	Alloc resource.Vector
}

// Hold returns the no-change decision for an observation.
func Hold(o Observation) Decision {
	return Decision{Replicas: o.Replicas, Alloc: o.Alloc}
}

// Controller decides resource assignments for one application. A
// controller instance is bound to a single application; it may keep
// per-app state (PID integrals, usage histories) between calls.
type Controller interface {
	// Name identifies the policy for tables and logs.
	Name() string
	// Decide maps the current observation to the next decision. The
	// caller clamps the result to the observation's Limits.
	Decide(Observation) Decision
}

// Factory builds a fresh controller for an application; the harness uses
// one factory per policy under comparison.
type Factory func(app string) Controller

// Explainer is optionally implemented by controllers that can explain
// their most recent decision in one line (for event journals and logs).
type Explainer interface {
	Rationale() string
}

// Traceable is optionally implemented by controllers that can expose the
// internal decomposition of their most recent decision — PID terms,
// gains, the stage that drove the change — for the trace and the
// /debug/controllers endpoint.
type Traceable interface {
	DecisionTrace() obs.ControlTrace
}

// decideEvent builds the "decide" trace event for one control step and
// returns it with the controller's adaptation count (prevAdapts when the
// controller is not Traceable); an "adapt" event (adaptEvent) follows it
// when that count advanced. Pure value construction — no tracer
// access, no controller mutation beyond the Rationale/DecisionTrace
// reads — so the evaluate phase can build the events and hand them to
// the apply phase for recording.
func decideEvent(o Observation, d Decision, c Controller, prevAdapts int) (obs.Event, int) {
	ev := obs.Event{
		At:          o.Now,
		Kind:        obs.KindControl,
		Verb:        obs.VerbDecide,
		App:         o.App,
		PerfErr:     o.PerfError(),
		SLI:         o.SLI,
		Objective:   o.PLO.Target,
		Offered:     o.OfferedLoad,
		Replicas:    o.Replicas,
		Ready:       o.ReadyReplicas,
		NewReplicas: d.Replicas,
		Alloc:       o.Alloc,
		NewAlloc:    d.Alloc,
		Util:        o.Utilisation,
	}
	if ex, ok := c.(Explainer); ok {
		ev.Detail = ex.Rationale()
	}
	adapts := prevAdapts
	if t, ok := c.(Traceable); ok {
		ev.HasCtrl = true
		ev.Ctrl = t.DecisionTrace()
		adapts = ev.Ctrl.Adaptations
	}
	return ev, adapts
}

// adaptEvent derives the gain-adaptation event that accompanies a decide
// event whose adaptation count advanced.
func adaptEvent(ev obs.Event) obs.Event {
	return obs.Event{
		At:      ev.At,
		Kind:    obs.KindGain,
		Verb:    obs.VerbAdapt,
		App:     ev.App,
		HasCtrl: ev.HasCtrl,
		Ctrl:    ev.Ctrl,
	}
}

// IsTransient reports whether an actuation error is retryable: the error
// (or one it wraps) implements Transient() bool and returns true.
// Injected chaos rejections are transient; a controller handing the
// cluster an invalid decision is not.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// NoopController holds the current state forever; useful as a fallback
// when a policy has no knowledge of an application.
type NoopController struct{}

// Name implements Controller.
func (NoopController) Name() string { return "noop" }

// Decide implements Controller.
func (NoopController) Decide(o Observation) Decision { return Hold(o) }
