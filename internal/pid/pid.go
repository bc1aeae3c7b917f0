// Package pid implements the controllers at the heart of the EVOLVE
// autoscaler: a production-grade scalar PID with anti-windup, derivative
// filtering and output clamping; an online adaptive tuner that reshapes the
// gains from the observed closed-loop behaviour; and a multi-dimensional
// variant that runs one loop per resource kind and distributes corrective
// effort across them.
package pid

import (
	"fmt"
	"math"
	"time"
)

// Gains holds the three PID gains.
type Gains struct {
	Kp, Ki, Kd float64
}

// Config parameterises a Controller.
type Config struct {
	Gains Gains

	// OutMin/OutMax clamp the controller output. Integral anti-windup
	// uses back-calculation against these limits.
	OutMin, OutMax float64

	// DerivativeTau is the time constant of the first-order low-pass
	// filter on the derivative term; zero disables filtering.
	DerivativeTau time.Duration

	// SetpointWeight scales the proportional action on setpoint changes
	// (2-DOF PID); 1 is the classical behaviour. Derivative always acts
	// on the measurement only, so setpoint steps never cause derivative
	// kick.
	SetpointWeight float64
}

// DefaultConfig returns a conservative starting configuration with
// symmetric output limits of ±1.
func DefaultConfig() Config {
	return Config{
		Gains:          Gains{Kp: 0.5, Ki: 0.1, Kd: 0.05},
		OutMin:         -1,
		OutMax:         1,
		DerivativeTau:  2 * time.Second,
		SetpointWeight: 1,
	}
}

// Term is the decomposition of one Update: the control error, the three
// contributions after anti-windup settled, the clamped output and
// whether the output limiter engaged. P+I+D always equals Out — the
// integral contribution is read back after back-calculation bled it.
type Term struct {
	Err     float64
	P       float64
	I       float64
	D       float64
	Out     float64
	Clamped bool
}

// Controller is a discrete-time PID controller. It is not safe for
// concurrent use.
type Controller struct {
	cfg Config

	integral   float64
	prevMeas   float64
	prevDeriv  float64
	havePrev   bool
	lastOutput float64
	lastErr    float64
	lastTerm   Term
}

// NewController validates cfg and returns a controller.
func NewController(cfg Config) (*Controller, error) {
	if cfg.OutMax <= cfg.OutMin {
		return nil, fmt.Errorf("pid: OutMax (%v) must exceed OutMin (%v)", cfg.OutMax, cfg.OutMin)
	}
	if cfg.Gains.Kp < 0 || cfg.Gains.Ki < 0 || cfg.Gains.Kd < 0 {
		return nil, fmt.Errorf("pid: negative gains %+v", cfg.Gains)
	}
	if cfg.SetpointWeight == 0 {
		cfg.SetpointWeight = 1
	}
	return &Controller{cfg: cfg}, nil
}

// MustController is NewController that panics on error.
func MustController(cfg Config) *Controller {
	c, err := NewController(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Gains returns the current gains.
func (c *Controller) Gains() Gains { return c.cfg.Gains }

// SetGains replaces the gains on the fly (used by the adaptive tuner).
// Negative gains are clamped to zero.
func (c *Controller) SetGains(g Gains) {
	if g.Kp < 0 {
		g.Kp = 0
	}
	if g.Ki < 0 {
		g.Ki = 0
	}
	if g.Kd < 0 {
		g.Kd = 0
	}
	c.cfg.Gains = g
}

// Output returns the most recent controller output.
func (c *Controller) Output() float64 { return c.lastOutput }

// LastError returns the most recent control error (setpoint - measured).
func (c *Controller) LastError() float64 { return c.lastErr }

// LastTerm returns the decomposition of the most recent Update; the
// zero Term before the first call.
func (c *Controller) LastTerm() Term { return c.lastTerm }

// Reset clears integral and derivative state.
func (c *Controller) Reset() {
	c.integral, c.prevMeas, c.prevDeriv = 0, 0, 0
	c.havePrev = false
	c.lastOutput, c.lastErr = 0, 0
	c.lastTerm = Term{}
}

// Update advances the controller by dt with the given setpoint and
// measurement and returns the clamped output. dt must be positive.
func (c *Controller) Update(setpoint, measured float64, dt time.Duration) float64 {
	if dt <= 0 {
		return c.lastOutput
	}
	dts := dt.Seconds()
	g := c.cfg.Gains
	err := setpoint - measured
	c.lastErr = err

	// Proportional with setpoint weighting.
	p := g.Kp * (c.cfg.SetpointWeight*setpoint - measured)

	// Derivative on measurement with optional low-pass filter.
	var d float64
	if c.havePrev && g.Kd > 0 {
		raw := -(measured - c.prevMeas) / dts
		if tau := c.cfg.DerivativeTau.Seconds(); tau > 0 {
			alpha := dts / (tau + dts)
			d = c.prevDeriv + alpha*(raw-c.prevDeriv)
		} else {
			d = raw
		}
		c.prevDeriv = d
		d *= g.Kd
	}

	// Tentative integral update, then back-calculation anti-windup: if
	// the unclamped output exceeds the limits, bleed the integral so the
	// clamped output sits exactly on the limit.
	c.integral += err * dts
	i := g.Ki * c.integral
	out := p + i + d
	clamped := false
	if out > c.cfg.OutMax {
		clamped = true
		if g.Ki > 0 {
			c.integral -= (out - c.cfg.OutMax) / g.Ki
		}
		out = c.cfg.OutMax
	} else if out < c.cfg.OutMin {
		clamped = true
		if g.Ki > 0 {
			c.integral += (c.cfg.OutMin - out) / g.Ki
		}
		out = c.cfg.OutMin
	}

	c.prevMeas = measured
	c.havePrev = true
	c.lastOutput = out
	// Read the integral contribution back after anti-windup so the
	// recorded terms sum to the clamped output (out - p - d when the
	// limiter engaged without an integral gain to bleed).
	c.lastTerm = Term{Err: err, P: p, I: out - p - d, D: d, Out: out, Clamped: clamped}
	return out
}

// TunerConfig parameterises the adaptive gain tuner.
type TunerConfig struct {
	// Window is how many recent errors the tuner inspects.
	Window int
	// OscillationThreshold: fraction of sign flips in the window above
	// which the loop is considered oscillating.
	OscillationThreshold float64
	// SluggishThreshold: if the normalised mean |error| stays above this
	// with few sign flips, the loop is considered sluggish.
	SluggishThreshold float64
	// Step is the multiplicative gain adjustment per adaptation.
	Step float64
	// MinKp/MaxKp bound the proportional gain; Ki and Kd scale with Kp
	// preserving their initial ratios.
	MinKp, MaxKp float64
	// Cooldown is the number of Observe calls between adaptations.
	Cooldown int
}

// DefaultTunerConfig returns the tuner settings used by the EVOLVE core.
func DefaultTunerConfig() TunerConfig {
	return TunerConfig{
		Window:               12,
		OscillationThreshold: 0.4,
		SluggishThreshold:    0.15,
		Step:                 1.3,
		MinKp:                0.05,
		MaxKp:                8,
		Cooldown:             6,
	}
}

// Tuner adapts a controller's gains online. The heuristic mirrors how a
// human detunes a loop: persistent error with little sign change means the
// loop is too timid (raise gains); frequent sign flips with significant
// amplitude mean it is oscillating (lower gains and damp).
type Tuner struct {
	cfg      TunerConfig
	ctrl     *Controller
	ratioI   float64 // Ki/Kp at creation, preserved across adaptations
	ratioD   float64 // Kd/Kp at creation
	errs     []float64
	sincTune int
	adapts   int
}

// NewTuner wraps ctrl with an adaptive tuner.
func NewTuner(ctrl *Controller, cfg TunerConfig) *Tuner {
	if cfg.Window <= 1 {
		cfg.Window = DefaultTunerConfig().Window
	}
	if cfg.Step <= 1 {
		cfg.Step = DefaultTunerConfig().Step
	}
	g := ctrl.Gains()
	ratioI, ratioD := 0.0, 0.0
	if g.Kp > 0 {
		ratioI, ratioD = g.Ki/g.Kp, g.Kd/g.Kp
	}
	return &Tuner{cfg: cfg, ctrl: ctrl, ratioI: ratioI, ratioD: ratioD}
}

// Adaptations returns how many gain adjustments have been applied.
func (t *Tuner) Adaptations() int { return t.adapts }

// Observe feeds one normalised control error (error/setpoint scale) after
// each controller update and adapts gains when a pattern emerges.
func (t *Tuner) Observe(normErr float64) {
	// Slide the window in place: once full, shift it down one and write
	// the newest error last, so it stays oldest-to-newest without
	// reallocating.
	if len(t.errs) < t.cfg.Window {
		if t.errs == nil {
			t.errs = make([]float64, 0, t.cfg.Window)
		}
		t.errs = append(t.errs, normErr)
	} else {
		copy(t.errs, t.errs[1:])
		t.errs[len(t.errs)-1] = normErr
	}
	t.sincTune++
	if len(t.errs) < t.cfg.Window || t.sincTune < t.cfg.Cooldown {
		return
	}

	flips := 0
	var absSum float64
	for i, e := range t.errs {
		absSum += math.Abs(e)
		if i > 0 && e*t.errs[i-1] < 0 {
			flips++
		}
	}
	meanAbs := absSum / float64(len(t.errs))
	flipFrac := float64(flips) / float64(len(t.errs)-1)

	g := t.ctrl.Gains()
	switch {
	case flipFrac >= t.cfg.OscillationThreshold && meanAbs > 0.05:
		// Oscillating: back off proportional/integral, keep damping.
		g.Kp = math.Max(t.cfg.MinKp, g.Kp/t.cfg.Step)
	case flipFrac < t.cfg.OscillationThreshold/2 && meanAbs > t.cfg.SluggishThreshold:
		// Sluggish: persistent one-sided error, push harder.
		g.Kp = math.Min(t.cfg.MaxKp, g.Kp*t.cfg.Step)
	default:
		return
	}
	g.Ki = g.Kp * t.ratioI
	g.Kd = g.Kp * t.ratioD
	t.ctrl.SetGains(g)
	t.adapts++
	t.sincTune = 0
}
