package control

// HardenConfig parameterises the degraded-mode wrapper.
type HardenConfig struct {
	// MaxBlind is how many consecutive blind control periods (no usable
	// telemetry, see Observation.Blind) the wrapper tolerates before
	// degrading from hold-in-place to the conservative hold-last-safe
	// stance. Default 3.
	MaxBlind int
}

// DefaultHardenConfig returns the standard staleness budget.
func DefaultHardenConfig() HardenConfig { return HardenConfig{MaxBlind: 3} }

// Hardened wraps a controller with observation-health tracking. While the
// observation carries usable telemetry it is a transparent passthrough
// (and remembers the decision as the last safe one). On a blind
// observation the inner controller is not called at all — its integral
// state freezes exactly where the last sighted decision left it
// (anti-windup by omission) — and the wrapper holds the current state.
// Past the staleness budget it degrades: the decision becomes the
// component-wise maximum of the current state and the last safe
// decision, so a blind controller may keep capacity but never sheds it.
type Hardened struct {
	inner Controller
	cfg   HardenConfig

	blind    int  // consecutive blind periods
	degraded bool // past the staleness budget
	lastSafe Decision
	haveSafe bool
	health   Health
}

// Harden wraps inner; a zero cfg takes defaults.
func Harden(inner Controller, cfg HardenConfig) *Hardened {
	if cfg.MaxBlind <= 0 {
		cfg.MaxBlind = DefaultHardenConfig().MaxBlind
	}
	return &Hardened{inner: inner, cfg: cfg}
}

// Name implements Controller.
func (h *Hardened) Name() string { return h.inner.Name() }

// Inner returns the wrapped controller (for tracing and debug views).
func (h *Hardened) Inner() Controller { return h.inner }

// Degraded reports whether the wrapper is past its staleness budget.
func (h *Hardened) Degraded() bool { return h.degraded }

// BlindPeriods returns the current consecutive-blind count.
func (h *Hardened) BlindPeriods() int { return h.blind }

// Status describes the wrapper's health stance after the latest Decide:
// empty while sighted, a one-line reason while blind or degraded.
func (h *Hardened) Status() string { return h.health.String() }

// Health returns the typed stance Status renders.
func (h *Hardened) Health() Health { return h.health }

// Decide implements Controller with the degraded-mode state machine.
func (h *Hardened) Decide(o Observation) Decision {
	if !o.Blind() {
		if h.blind > 0 {
			h.health = Health{Code: HealthRecovered, Blind: h.blind}
		} else {
			h.health = Health{}
		}
		h.blind, h.degraded = 0, false
		d := h.inner.Decide(o)
		h.lastSafe, h.haveSafe = d, true
		return d
	}
	h.blind++
	d := Hold(o)
	if h.blind <= h.cfg.MaxBlind {
		h.health = Health{Code: HealthBlind, Blind: h.blind, Budget: h.cfg.MaxBlind}
		return d
	}
	h.degraded = true
	if h.haveSafe {
		// Conservative stance: keep at least the last allocation a
		// sighted controller chose. Scaling up on no data is speculative;
		// scaling down on no data is how outages start.
		if h.lastSafe.Replicas > d.Replicas {
			d.Replicas = h.lastSafe.Replicas
		}
		d.Alloc = d.Alloc.Max(h.lastSafe.Alloc)
	}
	h.health = Health{Code: HealthDegraded, Blind: h.blind, Budget: h.cfg.MaxBlind}
	return d
}
