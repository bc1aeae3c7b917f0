package pid

import (
	"math"
	"testing"
	"time"
)

const dt = time.Second

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(Config{OutMin: 1, OutMax: 0}); err == nil {
		t.Error("inverted limits should fail")
	}
	if _, err := NewController(Config{Gains: Gains{Kp: -1}, OutMin: -1, OutMax: 1}); err == nil {
		t.Error("negative gains should fail")
	}
	if _, err := NewController(DefaultConfig()); err != nil {
		t.Errorf("default config should validate: %v", err)
	}
}

func TestMustControllerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustController should panic on bad config")
		}
	}()
	MustController(Config{OutMin: 1, OutMax: -1})
}

func TestProportionalOnly(t *testing.T) {
	c := MustController(Config{Gains: Gains{Kp: 2}, OutMin: -100, OutMax: 100})
	out := c.Update(10, 4, dt)
	if out != 12 {
		t.Errorf("P-only output = %v, want 12", out)
	}
	if c.LastError() != 6 {
		t.Errorf("LastError = %v, want 6", c.LastError())
	}
}

func TestIntegralAccumulates(t *testing.T) {
	c := MustController(Config{Gains: Gains{Ki: 1}, OutMin: -100, OutMax: 100})
	c.Update(1, 0, dt)
	c.Update(1, 0, dt)
	out := c.Update(1, 0, dt)
	if math.Abs(out-3) > 1e-9 {
		t.Errorf("I output after 3s of unit error = %v, want 3", out)
	}
}

func TestAntiWindup(t *testing.T) {
	c := MustController(Config{Gains: Gains{Ki: 1}, OutMin: -1, OutMax: 1})
	// Saturate hard for a long time.
	for i := 0; i < 100; i++ {
		if out := c.Update(10, 0, dt); out > 1 {
			t.Fatalf("output %v exceeded OutMax", out)
		}
	}
	// With back-calculation, the loop must unwind essentially immediately
	// once the error reverses, instead of burning off 1000 error-seconds.
	out := c.Update(0, 10, dt)
	if out > 0 {
		t.Errorf("after error reversal output = %v, want <= 0 (no windup)", out)
	}
}

func TestOutputClamping(t *testing.T) {
	c := MustController(Config{Gains: Gains{Kp: 100}, OutMin: -2, OutMax: 2})
	if out := c.Update(100, 0, dt); out != 2 {
		t.Errorf("clamped high = %v", out)
	}
	if out := c.Update(-100, 0, dt); out != -2 {
		t.Errorf("clamped low = %v", out)
	}
}

func TestDerivativeOnMeasurementNoSetpointKick(t *testing.T) {
	cfg := Config{Gains: Gains{Kd: 10}, OutMin: -100, OutMax: 100, DerivativeTau: 0}
	c := MustController(cfg)
	c.Update(0, 5, dt)
	// Large setpoint step with constant measurement: derivative must not
	// react at all.
	out := c.Update(100, 5, dt)
	if out != 0 {
		t.Errorf("setpoint step caused derivative kick: %v", out)
	}
	// Measurement ramp should produce negative derivative action.
	out = c.Update(100, 10, dt)
	if out >= 0 {
		t.Errorf("rising measurement should give negative D action: %v", out)
	}
}

func TestDerivativeFilterSmooths(t *testing.T) {
	raw := MustController(Config{Gains: Gains{Kd: 1}, OutMin: -100, OutMax: 100})
	filt := MustController(Config{Gains: Gains{Kd: 1}, OutMin: -100, OutMax: 100, DerivativeTau: 5 * time.Second})
	raw.Update(0, 0, dt)
	filt.Update(0, 0, dt)
	ro := raw.Update(0, 10, dt) // measurement jump
	fo := filt.Update(0, 10, dt)
	if math.Abs(fo) >= math.Abs(ro) {
		t.Errorf("filtered derivative |%v| should be smaller than raw |%v|", fo, ro)
	}
}

func TestUpdateZeroDtIsNoop(t *testing.T) {
	c := MustController(DefaultConfig())
	c.Update(1, 0, dt)
	prev := c.Output()
	if out := c.Update(5, 3, 0); out != prev {
		t.Errorf("zero-dt update changed output: %v vs %v", out, prev)
	}
}

func TestReset(t *testing.T) {
	c := MustController(DefaultConfig())
	c.Update(1, 0, dt)
	c.Reset()
	if c.Output() != 0 || c.LastError() != 0 {
		t.Error("Reset should clear state")
	}
}

func TestSetGainsClampsNegative(t *testing.T) {
	c := MustController(DefaultConfig())
	c.SetGains(Gains{Kp: -1, Ki: -2, Kd: -3})
	g := c.Gains()
	if g.Kp != 0 || g.Ki != 0 || g.Kd != 0 {
		t.Errorf("negative gains not clamped: %+v", g)
	}
}

// plant is a first-order lag: y += (u*gain - y) * dt/tau.
type plant struct {
	y, gain, tau float64
}

func (p *plant) step(u float64, d time.Duration) float64 {
	p.y += (u*p.gain - p.y) * d.Seconds() / p.tau
	return p.y
}

func TestClosedLoopConvergence(t *testing.T) {
	c := MustController(Config{
		Gains:  Gains{Kp: 0.8, Ki: 0.4, Kd: 0.1},
		OutMin: 0, OutMax: 100,
		DerivativeTau: 2 * time.Second,
	})
	p := &plant{gain: 2, tau: 5}
	setpoint := 10.0
	var y float64
	for i := 0; i < 300; i++ {
		u := c.Update(setpoint, y, dt)
		y = p.step(u, dt)
	}
	if math.Abs(y-setpoint) > 0.1 {
		t.Errorf("closed loop settled at %v, want ≈%v", y, setpoint)
	}
}

func TestClosedLoopTracksSetpointChanges(t *testing.T) {
	c := MustController(Config{
		Gains:  Gains{Kp: 0.8, Ki: 0.4},
		OutMin: 0, OutMax: 100,
	})
	p := &plant{gain: 2, tau: 5}
	var y float64
	for i := 0; i < 200; i++ {
		y = p.step(c.Update(10, y, dt), dt)
	}
	for i := 0; i < 200; i++ {
		y = p.step(c.Update(25, y, dt), dt)
	}
	if math.Abs(y-25) > 0.2 {
		t.Errorf("after setpoint change settled at %v, want ≈25", y)
	}
}

func TestTunerRaisesGainsWhenSluggish(t *testing.T) {
	c := MustController(Config{Gains: Gains{Kp: 0.1, Ki: 0.02}, OutMin: -10, OutMax: 10})
	tn := NewTuner(c, DefaultTunerConfig())
	kp0 := c.Gains().Kp
	// Persistent large one-sided error: the tuner must push gains up.
	for i := 0; i < 50; i++ {
		tn.Observe(0.5)
	}
	if c.Gains().Kp <= kp0 {
		t.Errorf("Kp = %v did not increase from %v under sluggish error", c.Gains().Kp, kp0)
	}
	if tn.Adaptations() == 0 {
		t.Error("no adaptations recorded")
	}
}

func TestTunerLowersGainsWhenOscillating(t *testing.T) {
	c := MustController(Config{Gains: Gains{Kp: 4, Ki: 0.8}, OutMin: -10, OutMax: 10})
	tn := NewTuner(c, DefaultTunerConfig())
	kp0 := c.Gains().Kp
	for i := 0; i < 50; i++ {
		e := 0.4
		if i%2 == 0 {
			e = -0.4
		}
		tn.Observe(e)
	}
	if c.Gains().Kp >= kp0 {
		t.Errorf("Kp = %v did not decrease from %v under oscillation", c.Gains().Kp, kp0)
	}
}

func TestTunerQuietLoopUntouched(t *testing.T) {
	c := MustController(DefaultConfig())
	g0 := c.Gains()
	tn := NewTuner(c, DefaultTunerConfig())
	for i := 0; i < 100; i++ {
		tn.Observe(0.01)
	}
	if c.Gains() != g0 {
		t.Errorf("quiet loop gains changed: %+v -> %+v", g0, c.Gains())
	}
}

func TestTunerPreservesGainRatios(t *testing.T) {
	c := MustController(Config{Gains: Gains{Kp: 1, Ki: 0.5, Kd: 0.25}, OutMin: -10, OutMax: 10})
	tn := NewTuner(c, DefaultTunerConfig())
	for i := 0; i < 50; i++ {
		tn.Observe(0.5)
	}
	g := c.Gains()
	if math.Abs(g.Ki/g.Kp-0.5) > 1e-9 || math.Abs(g.Kd/g.Kp-0.25) > 1e-9 {
		t.Errorf("gain ratios drifted: %+v", g)
	}
}

func TestTunerRespectsBounds(t *testing.T) {
	cfg := DefaultTunerConfig()
	cfg.MaxKp = 0.5
	c := MustController(Config{Gains: Gains{Kp: 0.4}, OutMin: -10, OutMax: 10})
	tn := NewTuner(c, cfg)
	for i := 0; i < 500; i++ {
		tn.Observe(0.9)
	}
	if c.Gains().Kp > cfg.MaxKp+1e-9 {
		t.Errorf("Kp = %v exceeded MaxKp %v", c.Gains().Kp, cfg.MaxKp)
	}
}

func TestAdaptiveBeatsFixedSluggishGains(t *testing.T) {
	// A deliberately under-tuned loop: adaptive tuning should reach the
	// setpoint band significantly sooner than the fixed loop.
	run := func(adaptive bool) int {
		c := MustController(Config{Gains: Gains{Kp: 0.05, Ki: 0.01}, OutMin: 0, OutMax: 100})
		var tn *Tuner
		if adaptive {
			tn = NewTuner(c, DefaultTunerConfig())
		}
		p := &plant{gain: 1, tau: 3}
		setpoint := 50.0
		var y float64
		settled := -1
		for i := 0; i < 600; i++ {
			u := c.Update(setpoint, y, dt)
			if tn != nil {
				tn.Observe((setpoint - y) / setpoint)
			}
			y = p.step(u, dt)
			if settled < 0 && math.Abs(y-setpoint)/setpoint < 0.05 {
				settled = i
			}
		}
		if settled < 0 {
			settled = 600
		}
		return settled
	}
	fixed, adaptive := run(false), run(true)
	if adaptive >= fixed {
		t.Errorf("adaptive settled at %d, fixed at %d; adaptive should be faster", adaptive, fixed)
	}
}

// TestTunerWindowSlidesInPlace: once the window is full, Observe
// allocates nothing, and the window holds the last Window errors
// oldest-to-newest.
func TestTunerWindowSlidesInPlace(t *testing.T) {
	c := MustController(DefaultConfig())
	tn := NewTuner(c, DefaultTunerConfig())
	e := 0.0
	next := func() float64 {
		e += 0.01
		return math.Sin(e * 7)
	}
	for i := 0; i < 3*tn.cfg.Window; i++ {
		tn.Observe(next())
	}
	if allocs := testing.AllocsPerRun(100, func() { tn.Observe(next()) }); allocs != 0 {
		t.Errorf("Observe on a full window allocates %.1f times, want 0", allocs)
	}
	for i, got := range tn.errs {
		want := math.Sin((e - float64(len(tn.errs)-1-i)*0.01) * 7)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("window[%d] = %v, want %v (window %v)", i, got, want, tn.errs)
		}
	}
}
