package control

import (
	"fmt"
	"strconv"
	"time"

	"evolve/internal/obs"
	"evolve/internal/perf"
	"evolve/internal/sim"
)

// Plant is the actuation surface the control loop drives; the cluster
// substrate satisfies it. Observe aggregates telemetry since the last
// call; ApplyDecision may fail transiently (see IsTransient), in which
// case the loop retries with backoff.
type Plant interface {
	Apps() []string
	Observe(app string) (Observation, error)
	ApplyDecision(app string, d Decision) error
}

// Recorder is optionally implemented by plants with an operational
// journal; the loop writes controller rationale and degraded-mode
// transitions to it.
type Recorder interface {
	RecordEvent(kind, object, message string)
}

// RetryConfig bounds the actuation retry ladder.
type RetryConfig struct {
	// MaxAttempts is how many retries follow a failed actuation before
	// the loop abandons the decision (the next control period supersedes
	// it anyway). Default 3.
	MaxAttempts int
	// Base is the first backoff; attempt n waits Base·2ⁿ. Default 2s.
	Base time.Duration
	// Cap bounds the backoff. Default 30s.
	Cap time.Duration
	// Jitter is the ± fraction applied to each backoff. Zero takes the
	// default 0.25; a negative value (see JitterNone) selects an
	// explicit zero-jitter ladder for deterministic retry timing.
	Jitter float64
}

// JitterNone is the RetryConfig.Jitter sentinel for "no jitter at all".
// The zero value of Jitter means "use the default", so an explicit
// zero-jitter ladder needs a distinct representation.
const JitterNone = -1.0

// DefaultRetryConfig returns the standard backoff ladder: 2s, 4s, 8s
// (±25%), then abandon.
func DefaultRetryConfig() RetryConfig {
	return RetryConfig{MaxAttempts: 3, Base: 2 * time.Second, Cap: 30 * time.Second, Jitter: 0.25}
}

// DefaultInterval is the control period when LoopConfig.Interval is
// zero.
const DefaultInterval = 15 * time.Second

// LoopConfig parameterises a control loop.
type LoopConfig struct {
	// Interval is the control period (DefaultInterval when zero).
	Interval time.Duration
	// Seed drives the retry jitter. The loop's RNG is independent of the
	// simulation engine's streams, so retries (which only happen under
	// faults) never perturb fault-free runs.
	Seed int64
	// Harden and Retry take defaults when zero.
	Harden HardenConfig
	Retry  RetryConfig
}

// BatchActuator is optionally implemented by plants that can amortise
// per-decision work across one control period's apply phase. The loop
// brackets every period's apply walk with Begin/End; everything the
// plant caches inside the window must be invariant for the duration of
// the step event (the simulated world cannot change mid-event), so
// results stay byte-identical. Retries and chaos-delayed applies fire
// outside the window and see the live world.
type BatchActuator interface {
	BeginActuationBatch()
	EndActuationBatch()
}

// CtrlTiming accumulates control-period wall time, split into the
// evaluate phase and the apply walk. Wall-clock observation only — never part of the
// simulated state.
type CtrlTiming struct {
	Periods uint64
	EvalNs  int64
	ApplyNs int64
}

// MSPerPeriod returns the mean wall milliseconds per control period.
func (t *CtrlTiming) MSPerPeriod() float64 {
	if t.Periods == 0 {
		return 0
	}
	return float64(t.EvalNs+t.ApplyNs) / float64(t.Periods) / 1e6
}

// LoopStats counts what the loop did.
type LoopStats struct {
	// Decisions is the number of control decisions taken.
	Decisions uint64
	// DegradedPeriods counts control periods spent in degraded mode;
	// DegradedTransitions counts entries into it.
	DegradedPeriods, DegradedTransitions uint64
	// Retries counts scheduled actuation retries; Abandoned counts
	// decisions given up after the retry budget.
	Retries, Abandoned uint64
}

// Loop is the periodic controller driver shared by the public facade and
// the experiment harness: observe every app, decide through a Hardened
// wrapper (integral freeze while blind, hold-last-safe past the
// staleness budget), trace, actuate, and retry failed actuations with
// exponential backoff and jitter. One Loop drives one plant.
type Loop struct {
	eng    *sim.Engine
	plant  Plant
	cfg    LoopConfig
	tracer *obs.Tracer
	rng    *sim.RNG

	ctrl          map[string]*Hardened
	lastDecision  map[string]Decision
	prevAdapts    map[string]int
	lastRationale map[string]string
	retryGen      map[string]uint64
	// degradedSince marks when each app entered degraded mode, so the
	// recovery transition can record the whole episode as one span.
	degradedSince map[string]time.Duration

	// pendingRetries mirrors the in-flight retry timers, keyed by the
	// unique tag each retry event carries, so a checkpoint can rebuild
	// the retry closures on restore. Entries are removed when their
	// event fires (superseded or not).
	pendingRetries map[string]retryEntry
	retrySeq       uint64

	// evalBuf is the evaluate-phase scratch (step): the per-period eval
	// tuples in canonical app order, reused across periods.
	evalBuf []ctrlEval
	// stateBufs are SaveState's encoding buffers, reused across calls.
	stateBufs [][]byte

	// timing/phases are wall-clock observation hooks (EnableTiming /
	// SetPhases); both nil by default so an untimed step reads no clock.
	timing *CtrlTiming
	phases *perf.PhaseBreakdown

	stats   LoopStats
	onFatal func(error)
	started bool
	killed  bool   // Kill'd by a ctrl-crash window, awaiting Restart
	cancel  func() // stops the periodic step (armed by Start/Restart)
}

// ctrlEval is one app's evaluate-phase result: everything the apply
// walk needs to take the app's turn without re-deciding.
type ctrlEval struct {
	app    string
	h      *Hardened
	o      Observation
	d      Decision
	err    error
	wasDeg bool
	nowDeg bool
	// traced is set when the tracer was enabled at eval time; ev/adapts
	// then carry the pre-built decide event and adaptation count.
	traced bool
	adapts int
	ev     obs.Event
}

// retryEntry is the rebuildable description of one scheduled retry.
type retryEntry struct {
	app     string
	d       Decision
	attempt int
	gen     uint64
}

// NewLoop builds a loop over the plant. Call Add for every app, then
// Start once.
func NewLoop(eng *sim.Engine, plant Plant, cfg LoopConfig) *Loop {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Retry.MaxAttempts <= 0 {
		cfg.Retry.MaxAttempts = DefaultRetryConfig().MaxAttempts
	}
	if cfg.Retry.Base <= 0 {
		cfg.Retry.Base = DefaultRetryConfig().Base
	}
	if cfg.Retry.Cap <= 0 {
		cfg.Retry.Cap = DefaultRetryConfig().Cap
	}
	if cfg.Retry.Jitter == 0 {
		cfg.Retry.Jitter = DefaultRetryConfig().Jitter
	} else if cfg.Retry.Jitter < 0 {
		// JitterNone (or any negative sentinel): explicit zero jitter.
		cfg.Retry.Jitter = 0
	}
	return &Loop{
		eng:   eng,
		plant: plant,
		cfg:   cfg,
		// The loop RNG must not fork from the engine: forking draws from
		// the engine stream and would shift every downstream component's
		// randomness, breaking seed-compatibility with pre-loop runs.
		rng:            sim.NewRNG(cfg.Seed ^ 0x6c6f6f70), // "loop"
		tracer:         obs.Nop(),
		ctrl:           make(map[string]*Hardened),
		lastDecision:   make(map[string]Decision),
		prevAdapts:     make(map[string]int),
		lastRationale:  make(map[string]string),
		retryGen:       make(map[string]uint64),
		degradedSince:  make(map[string]time.Duration),
		pendingRetries: make(map[string]retryEntry),
		onFatal:        func(err error) { panic(err) },
	}
}

// SetTracer installs the decision tracer (obs.Nop to disable).
func (l *Loop) SetTracer(t *obs.Tracer) {
	if t == nil {
		t = obs.Nop()
	}
	l.tracer = t
}

// OnFatal installs the handler for non-transient loop errors (observe
// failures, invalid decisions). The default panics, matching what an
// unhandled control-plane bug did before the loop existed; embedders
// install a handler that stops the engine and fails the run.
func (l *Loop) OnFatal(fn func(error)) {
	if fn != nil {
		l.onFatal = fn
	}
}

// Add registers the controller for an app, wrapping it in the
// degraded-mode Hardened state machine. Replacing a controller resets
// its health state.
func (l *Loop) Add(app string, c Controller) {
	l.ctrl[app] = Harden(c, l.cfg.Harden)
}

// Controller returns the inner (unwrapped) controller for an app.
func (l *Loop) Controller(app string) (Controller, bool) {
	h, ok := l.ctrl[app]
	if !ok {
		return nil, false
	}
	return h.inner, true
}

// Hardened returns the degraded-mode wrapper for an app.
func (l *Loop) Hardened(app string) (*Hardened, bool) {
	h, ok := l.ctrl[app]
	return h, ok
}

// LastDecision returns the most recent decision taken for an app.
func (l *Loop) LastDecision(app string) (Decision, bool) {
	d, ok := l.lastDecision[app]
	return d, ok
}

// Stats returns a snapshot of the loop counters.
func (l *Loop) Stats() LoopStats { return l.stats }

// EnableTiming turns on control-period wall-clock accounting and returns
// the accumulator (idempotent). Timing brackets each phase of the step
// with time.Now calls; the step body itself is unchanged.
func (l *Loop) EnableTiming() *CtrlTiming {
	if l.timing == nil {
		l.timing = &CtrlTiming{}
	}
	return l.timing
}

// SetPhases mirrors the loop's eval/apply wall time into a shared
// perf.PhaseBreakdown (the cluster's tick breakdown), so control-period
// cost shows up next to the tick phases in bench rows. Nil disables.
func (l *Loop) SetPhases(pb *perf.PhaseBreakdown) { l.phases = pb }

// recordTiming accumulates one period's wall time into the enabled
// sinks.
func (l *Loop) recordTiming(evalNs, applyNs int64) {
	if l.timing != nil {
		l.timing.Periods++
		l.timing.EvalNs += evalNs
		l.timing.ApplyNs += applyNs
	}
	if l.phases != nil {
		l.phases.Add(perf.PhaseCtrlEval, evalNs)
		l.phases.Add(perf.PhaseCtrlApply, applyNs)
	}
}

// Start arms the periodic control step. Idempotent.
func (l *Loop) Start() {
	if l.started {
		return
	}
	l.started = true
	l.eng.TagNext("loop", "")
	l.cancel = l.eng.Every(l.cfg.Interval, l.step)
}

// Kill stops the loop mid-run — the ctrl-crash chaos kind's model of the
// controller process dying. The periodic step is cancelled and every
// outstanding retry is superseded (its timer fires as a no-op): in-
// flight decisions are lost exactly as they would be with the process.
// The controllers' state survives in memory only so the harness can
// measure against it; a real restart comes from a checkpoint via
// Restart.
func (l *Loop) Kill() {
	if !l.started || l.killed {
		return
	}
	l.killed = true
	if l.cancel != nil {
		l.cancel()
	}
	for app := range l.retryGen {
		l.retryGen[app]++
	}
}

// Killed reports whether the loop is down pending Restart.
func (l *Loop) Killed() bool { return l.killed }

// Restart re-arms the periodic step after Kill — the controller process
// coming back up. Callers restore checkpointed controller state first
// (LoadState); the first step fires one interval after the restart.
func (l *Loop) Restart() {
	if !l.started || !l.killed {
		return
	}
	l.killed = false
	l.eng.TagNext("loop", "")
	l.cancel = l.eng.Every(l.cfg.Interval, l.step)
}

// step runs one control period in two phases. Evaluate (observe →
// harden → decide → trace-event construction) touches only per-app
// state: the app's observation window, its Hardened wrapper and its
// controller. Apply then walks the tuples in canonical app order inside
// the plant's actuation batch: every order-sensitive effect — stats,
// tracer records, retry-jitter draws, actuations — happens there. See
// DESIGN.md "Control step: inline evaluate, batched apply".
func (l *Loop) step() {
	apps := l.plant.Apps()
	buf := l.evalBuf[:0]
	for _, app := range apps {
		if h, ok := l.ctrl[app]; ok {
			buf = append(buf, ctrlEval{app: app, h: h})
		}
	}
	l.evalBuf = buf
	if len(buf) == 0 {
		return
	}

	var t0 time.Time
	timing := l.timing != nil || l.phases != nil
	if timing {
		t0 = time.Now()
	}
	for i := range buf {
		l.evalOne(&buf[i])
	}
	var evalNs int64
	if timing {
		evalNs = time.Since(t0).Nanoseconds()
		t0 = time.Now()
	}

	l.applyEvals()
	if timing {
		l.recordTiming(evalNs, time.Since(t0).Nanoseconds())
	}
}

// evalOne computes one app's evaluate tuple.
func (l *Loop) evalOne(e *ctrlEval) {
	o, err := l.plant.Observe(e.app)
	if err != nil {
		e.err = err
		return
	}
	e.o = o
	e.wasDeg = e.h.Degraded()
	e.d = e.h.Decide(o)
	e.nowDeg = e.h.Degraded()
	if l.tracer.Enabled() {
		e.traced = true
		e.ev, e.adapts = decideEvent(o, e.d, e.h.inner, l.prevAdapts[e.app])
	}
}

// applyEvals replays the buffered evaluate tuples in canonical app
// order: the stats, tracer records, health transitions, actuations and
// retry scheduling land in one fixed sequence.
// An observe error surfaces at its canonical position and stops the
// walk (later apps have already been evaluated then; the run is failing
// fatally anyway).
func (l *Loop) applyEvals() {
	rec, _ := l.plant.(Recorder)
	if ba, ok := l.plant.(BatchActuator); ok {
		ba.BeginActuationBatch()
		defer ba.EndActuationBatch()
	}
	for i := range l.evalBuf {
		e := &l.evalBuf[i]
		if e.err != nil {
			l.onFatal(fmt.Errorf("control: observe %s: %w", e.app, e.err))
			return
		}
		l.stats.Decisions++
		l.lastDecision[e.app] = e.d
		if e.traced {
			l.tracer.Record(e.ev)
			if e.adapts > l.prevAdapts[e.app] {
				l.tracer.Record(adaptEvent(e.ev))
			}
			l.prevAdapts[e.app] = e.adapts
		}
		if e.nowDeg != e.wasDeg {
			l.traceHealth(e.h, e.o, e.wasDeg, rec)
		}
		if e.nowDeg {
			l.stats.DegradedPeriods++
		}
		// A new decision supersedes any outstanding retries for the app.
		l.retryGen[e.app]++
		l.actuate(e.app, e.d, 0, l.retryGen[e.app])
		if rec != nil {
			if ex, ok := e.h.inner.(Explainer); ok {
				if r := ex.Rationale(); r != "" && r != l.lastRationale[e.app] {
					l.lastRationale[e.app] = r
					rec.RecordEvent("autoscale", e.app, r)
				}
			}
		}
	}
}

// traceHealth records a degraded-mode transition onto the tracer, the
// journal and the stats.
func (l *Loop) traceHealth(h *Hardened, o Observation, wasDegraded bool, rec Recorder) {
	verb := obs.VerbDegraded
	if wasDegraded {
		verb = obs.VerbRecovered
	} else {
		l.stats.DegradedTransitions++
		l.degradedSince[o.App] = o.Now
	}
	if l.tracer.Enabled() {
		l.tracer.Record(obs.Event{
			At: o.Now, Kind: obs.KindFault, Verb: verb, App: o.App,
			Detail: h.Status(), Replicas: o.Replicas, Ready: o.ReadyReplicas,
		})
		if wasDegraded {
			// Close the degraded episode as one completed span so the
			// timeline shows its whole extent, not just the edge events.
			l.tracer.RecordSpan(obs.Span{
				Kind: obs.SpanSegment, App: o.App, Object: o.App,
				Detail: "degraded", Shard: -1,
				Start: l.degradedSince[o.App], End: o.Now,
			})
		}
	}
	if rec != nil {
		rec.RecordEvent("degraded-mode", o.App, h.Status())
	}
}

// actuate applies a decision, scheduling a backoff retry on transient
// failure. A retry fires only if no newer decision for the app has been
// taken meanwhile (gen check).
func (l *Loop) actuate(app string, d Decision, attempt int, gen uint64) {
	err := l.plant.ApplyDecision(app, d)
	if err == nil {
		return
	}
	if !IsTransient(err) {
		l.onFatal(fmt.Errorf("control: apply decision %s: %w", app, err))
		return
	}
	if attempt >= l.cfg.Retry.MaxAttempts {
		l.stats.Abandoned++
		if l.tracer.Enabled() {
			l.tracer.Record(obs.Event{
				At: l.eng.Now(), Kind: obs.KindFault, Verb: obs.VerbAbandon, App: app,
				Detail:      fmt.Sprintf("actuation abandoned after %d attempts: %v", attempt+1, err),
				NewReplicas: d.Replicas, NewAlloc: d.Alloc,
			})
		}
		return
	}
	backoff := l.cfg.Retry.Base << uint(attempt)
	if backoff > l.cfg.Retry.Cap {
		backoff = l.cfg.Retry.Cap
	}
	backoff = time.Duration(l.rng.Jitter(float64(backoff), l.cfg.Retry.Jitter))
	l.stats.Retries++
	if l.tracer.Enabled() {
		l.tracer.Record(obs.Event{
			At: l.eng.Now(), Kind: obs.KindFault, Verb: obs.VerbRetry, App: app,
			Detail: fmt.Sprintf("attempt %d failed (%v); retrying in %v", attempt+1, err, backoff),
		})
	}
	key := strconv.FormatUint(l.retrySeq, 10)
	l.retrySeq++
	l.pendingRetries[key] = retryEntry{app: app, d: d, attempt: attempt, gen: gen}
	l.eng.TagNext("retry", key)
	l.eng.After(backoff, func() {
		delete(l.pendingRetries, key)
		if l.retryGen[app] != gen {
			return // superseded by a newer decision
		}
		l.actuate(app, d, attempt+1, gen)
	})
}
