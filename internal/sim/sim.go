// Package sim provides the discrete-event simulation kernel underneath the
// EVOLVE cluster substrate: a virtual clock, an event heap, periodic
// processes and a deterministic random source. All randomness and all
// notion of time in the repository flow through this package, which makes
// every experiment exactly reproducible from its seed.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start
// of the simulation.
type Time = time.Duration

// Event is a scheduled callback. Event structs are pooled: once executed
// (or popped dead) they return to the engine's free list and are reused
// by later schedules, so a steady periodic process allocates nothing per
// firing. gen guards stale Cancelers against recycled structs.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	fn   func()
	dead bool
	gen  uint64   // bumped on recycle; a Canceler only acts on its own generation
	tag  TimerTag // checkpoint identity (see ckpt.go); zero for untagged events
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; model code runs inside event callbacks on the engine's
// goroutine.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	free    []*event // recycled event structs (see type event)
	live    int      // queued events not yet executed or cancelled
	rng     *RNG
	nsteps  uint64
	stopped bool
	// pendingTag, when set via TagNext, is attached to the next scheduled
	// event and cleared. Checkpointing relies on every long-lived timer
	// carrying a tag; see ckpt.go.
	pendingTag TimerTag
}

// NewEngine returns an engine with virtual time 0 and a deterministic
// random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending returns the number of live events currently queued. Cancelled
// events still sitting in the heap are not counted.
func (e *Engine) Pending() int { return e.live }

// Canceler cancels a scheduled event or periodic process.
type Canceler func()

// schedule enqueues fn at absolute time t on a pooled event struct. It
// is the cancel-free core of At/After/Every: callers that never cancel
// (periodic re-arms, task completions) pay no Canceler closure.
func (e *Engine) schedule(t Time, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.dead = t, e.seq, fn, false
	ev.tag = e.pendingTag
	e.pendingTag = TimerTag{}
	e.seq++
	e.live++
	heap.Push(&e.events, ev)
	return ev
}

// freeSlack is how many spare event structs the free list may hold
// beyond the current heap size. A steady simulation keeps a small
// working set; after a one-off burst drains, the excess is released so
// the burst does not pin its peak heap for the rest of a long run.
const freeSlack = 64

// recycle returns a popped event to the free list, trimming the list to
// a high-water mark relative to the live heap.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.tag = TimerTag{}
	ev.gen++
	e.free = append(e.free, ev)
	if max := len(e.events) + freeSlack; len(e.free) > max {
		for i := max; i < len(e.free); i++ {
			e.free[i] = nil
		}
		e.free = e.free[:max]
		if cap(e.free) > 4*max {
			// Shed the backing array too: trimming length alone would keep
			// the burst-sized allocation reachable forever.
			e.free = append(make([]*event, 0, 2*max), e.free...)
		}
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it indicates a model bug, not a recoverable condition.
func (e *Engine) At(t Time, fn func()) Canceler {
	ev := e.schedule(t, fn)
	gen := ev.gen
	return func() {
		// The generation check makes cancelling after the event has
		// fired (and its struct was recycled) a safe no-op; the dead
		// check makes double-cancel (and self-cancel from inside the
		// callback, which step has already marked dead) idempotent.
		if ev.gen == gen && !ev.dead {
			ev.dead = true
			e.live--
		}
	}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d time.Duration, fn func()) Canceler {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Every schedules fn to run every interval, first firing after one
// interval. The returned Canceler stops future firings.
func (e *Engine) Every(interval time.Duration, fn func()) Canceler {
	if interval <= 0 {
		panic("sim: Every interval must be positive")
	}
	stopped := false
	// Capture the pending tag by value so every re-arm carries the same
	// identity: a periodic timer is one logical timer across firings.
	tag := e.pendingTag
	var cur *event // the in-flight re-arm event, so cancel can kill it
	var curGen uint64
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			// Re-arm through the cancel-free core: a periodic process
			// allocates nothing per firing.
			e.pendingTag = tag
			cur = e.schedule(e.now+interval, tick)
			curGen = cur.gen
		}
	}
	cur = e.schedule(e.now+interval, tick)
	curGen = cur.gen
	return func() {
		if stopped {
			return
		}
		stopped = true
		// Mark the pending re-arm dead in the heap: without this the
		// event stays live until its timestamp, so Pending would report
		// phantom work and a checkpoint would record a cancelled timer.
		// Guards mirror At's Canceler; cur is already dead when cancel
		// runs from inside fn itself.
		if cur.gen == curGen && !cur.dead {
			cur.dead = true
			e.live--
		}
	}
}

// Stop halts event processing: the Run or RunAll call in progress
// returns once the in-flight callback completes, and later calls process
// nothing. Model code calls it from inside a callback to abort a
// simulation on a fatal error instead of panicking.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// step pops and executes the next event. Dead (cancelled) events are
// skipped and not counted; executed reports whether a live callback ran.
// Run and RunAll share this so their step accounting cannot diverge.
func (e *Engine) step() (executed bool) {
	next := heap.Pop(&e.events).(*event)
	if next.dead {
		e.recycle(next)
		return false
	}
	e.now = next.at
	// Retire and count the event before running it: a callback that
	// cancels its own (already firing) event must not decrement live
	// twice, and a callback that checkpoints the clock (the periodic
	// snapshot timer) must see its own firing in the step count.
	next.dead = true
	e.live--
	e.nsteps++
	next.fn()
	e.recycle(next)
	return true
}

// Run executes events until virtual time reaches until, the queue
// drains, or Stop is called. It returns the number of events executed by
// this call; cancelled events are skipped and never counted.
func (e *Engine) Run(until Time) uint64 {
	var n uint64
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].at > until {
			break
		}
		if e.step() {
			n++
		}
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	return n
}

// RunAll executes events until the queue drains, counting exactly as Run
// does (cancelled events are skipped, not counted). It guards against
// runaway self-scheduling with a generous step limit on executed events.
func (e *Engine) RunAll() uint64 {
	const maxSteps = 1 << 30
	var n uint64
	for len(e.events) > 0 && !e.stopped {
		if n >= maxSteps {
			panic("sim: RunAll exceeded step limit; runaway event loop?")
		}
		if e.step() {
			n++
		}
	}
	return n
}

// RNG is a deterministic random source with the distribution helpers the
// workload generators need. It wraps math/rand with an explicit seed so
// simulations never touch global randomness.
type RNG struct {
	r    *rand.Rand
	src  *countSource
	seed int64
}

// countSource wraps math/rand's seeded source and counts state steps.
// Both Int63 and Uint64 advance the generator state exactly once, so the
// count is the stream position: re-seeding and burning Draws() steps
// reproduces the stream exactly (see Burn). rand.New takes the Source64
// path when offered, so values are bit-identical to an unwrapped source.
type countSource struct {
	src rand.Source64
	n   uint64
}

func (c *countSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countSource) Seed(seed int64) { c.src.Seed(seed) }

// NewRNG returns a source seeded with seed.
func NewRNG(seed int64) *RNG {
	src := &countSource{src: rand.NewSource(seed).(rand.Source64)}
	return &RNG{r: rand.New(src), src: src, seed: seed}
}

// Seed returns the seed this source was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Draws returns the number of state steps consumed so far — the stream
// position a checkpoint records.
func (g *RNG) Draws() uint64 { return g.src.n }

// maxDraws bounds a restored stream position. The streams a world
// checkpoints draw a few values per tick at most, so 2^28 draws is years
// of virtual time, and replaying them takes about a second; the bound
// turns a corrupt position into an error instead of a long spin.
const maxDraws = 1 << 28

// Burn advances the source to stream position n (absolute, not
// relative): a restore seeds a fresh RNG and burns it to the
// checkpointed Draws. A position behind the current one (the restored
// stream would silently rewind) or beyond maxDraws is an error.
func (g *RNG) Burn(n uint64) error {
	if n < g.src.n {
		return fmt.Errorf("sim: RNG position %d is behind the current %d", n, g.src.n)
	}
	if n > maxDraws {
		return fmt.Errorf("sim: RNG position %d exceeds the %d-draw limit", n, uint64(maxDraws))
	}
	for g.src.n < n {
		g.src.n++
		g.src.src.Uint64()
	}
	return nil
}

// Fork derives an independent child source; use one child per model
// component so adding a component does not perturb the streams of others.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a normal sample with the given mean and stddev.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Exp returns an exponential sample with the given mean (not rate).
// A non-positive mean returns 0.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// LogNormal returns a log-normal sample parameterised by the mean and
// coefficient of variation of the resulting distribution.
func (g *RNG) LogNormal(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(g.Normal(mu, math.Sqrt(sigma2)))
}

// Pareto returns a bounded Pareto sample with shape alpha and minimum
// value xm; heavy-tailed service demands use this.
func (g *RNG) Pareto(xm, alpha float64) float64 {
	u := g.r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a Poisson sample with the given mean, using inversion
// for small means and normal approximation for large ones.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		v := g.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Jitter returns v multiplied by a uniform factor in [1-frac, 1+frac].
func (g *RNG) Jitter(v, frac float64) float64 {
	return v * g.Uniform(1-frac, 1+frac)
}
