package sim

import (
	"sync"
	"time"

	"evolve/internal/par"
)

// Coordinator advances one primary engine and N shard engines under a
// shared clock. The primary carries the serial control plane (periodic
// ticks, controllers, chaos arming); shards carry partitioned model
// state whose events may execute in parallel when several shards share
// the minimum timestamp.
//
// The protocol keeps any shard count byte-identical to the 1-shard
// baseline:
//
//   - The kernel always advances the earliest-timestamp engine. When
//     one or more shards sit at the shared minimum, all of them drain
//     every event they hold at that timestamp (a "round") before
//     anything else runs; the primary only steps when no shard shares
//     the minimum, so shard work scheduled by a primary event at time t
//     completes before the next primary event at t.
//   - Within a round, shard events touch only their own shard's state.
//     Cross-shard effects are not applied in place: they are posted to
//     a per-source-shard mailbox and applied at the round barrier in
//     (source shard index, FIFO) order — a strict total order that does
//     not depend on goroutine interleaving.
//   - With workers > 1 a round's events run on the shared par pool;
//     with workers <= 1 they run inline in ascending shard order. Both
//     produce the same state because rounds only ever run events from
//     distinct shards.
type Coordinator struct {
	primary *Engine
	shards  []*Engine
	workers int

	mail [][]func() // mail[src] = messages posted by shard src this round

	jobs   []stepJob
	active []int // scratch: shard indexes at the minimum this round
	wg     sync.WaitGroup

	rounds    uint64 // shard rounds executed
	parRounds uint64 // rounds that fanned out to the pool
	mailed    int    // messages the last round's barrier applied
	// TakeRounds marks, for per-tick round deltas.
	roundsMark, parMark uint64

	timing    bool  // accumulate barrier/mailbox wall time
	barrierNs int64 // wg.Wait wall time in parallel rounds
	mailNs    int64 // drainMail wall time at round barriers
}

// stepJob runs one shard engine's share of a round — every event it
// holds at t; pointers into the coordinator's prealloc slice go to the
// pool, so a round allocates nothing. steps is written before wg.Done
// and read only after wg.Wait, so the WaitGroup orders the accesses.
type stepJob struct {
	eng   *Engine
	wg    *sync.WaitGroup
	t     Time
	steps int
}

func (j *stepJob) Run() {
	j.steps = j.eng.ProcessEventsAt(j.t)
	j.wg.Done()
}

// NewCoordinator builds a coordinator over primary plus nshards fresh
// shard engines. Shard engines share no RNG with the primary: model
// code is expected to key its randomness through a PartitionedRNG, not
// through engine sources, so shard engines are seeded only for
// completeness. workers <= 1 keeps rounds serial.
func NewCoordinator(primary *Engine, nshards, workers int) *Coordinator {
	if nshards < 1 {
		nshards = 1
	}
	if workers < 1 {
		workers = 1
	}
	co := &Coordinator{
		primary: primary,
		shards:  make([]*Engine, nshards),
		workers: workers,
		mail:    make([][]func(), nshards),
		jobs:    make([]stepJob, nshards),
		active:  make([]int, 0, nshards),
	}
	for i := range co.shards {
		co.shards[i] = NewEngine(int64(i) + 1)
	}
	return co
}

// Primary returns the control-plane engine.
func (co *Coordinator) Primary() *Engine { return co.primary }

// NumShards returns the shard count.
func (co *Coordinator) NumShards() int { return len(co.shards) }

// Shard returns shard engine i.
func (co *Coordinator) Shard(i int) *Engine { return co.shards[i] }

// Workers returns the configured round parallelism.
func (co *Coordinator) Workers() int { return co.workers }

// SetTiming enables (or disables) accumulation of barrier-wait and
// mailbox-drain wall time; TakeTimings reads and resets the counters.
// Timing is off by default so the hot round path pays one branch.
func (co *Coordinator) SetTiming(on bool) { co.timing = on }

// TakeTimings returns the accumulated barrier-wait and mailbox-drain
// nanoseconds since the last call, then resets both counters.
func (co *Coordinator) TakeTimings() (barrierNs, mailNs int64) {
	barrierNs, mailNs = co.barrierNs, co.mailNs
	co.barrierNs, co.mailNs = 0, 0
	return barrierNs, mailNs
}

// Rounds returns how many shard rounds have executed, and how many of
// them fanned out to the worker pool.
func (co *Coordinator) Rounds() (total, parallel uint64) {
	return co.rounds, co.parRounds
}

// TakeRounds returns the shard rounds (total, parallel) executed since
// the previous TakeRounds call and re-marks — the per-tick delta the
// phase-span emitter stamps onto its barrier span. Independent of
// Rounds, which keeps reporting lifetime totals.
func (co *Coordinator) TakeRounds() (total, parallel uint64) {
	total = co.rounds - co.roundsMark
	parallel = co.parRounds - co.parMark
	co.roundsMark, co.parMark = co.rounds, co.parRounds
	return total, parallel
}

// ShardSteps appends each shard engine's executed-event count to dst
// and returns it; evolve-bench embeds this in its JSON summary.
func (co *Coordinator) ShardSteps(dst []uint64) []uint64 {
	for _, sh := range co.shards {
		dst = append(dst, sh.Steps())
	}
	return dst
}

// Mail posts a cross-shard message from source shard src. It must be
// called only from an event running on shard src (or from serial code
// between rounds); the message runs at the next round barrier, after
// every active shard has finished its event, in (source shard, FIFO)
// order. Concurrent calls are safe only across distinct src values —
// exactly the discipline shard events follow — because each source has
// its own mailbox and no shared counter.
func (co *Coordinator) Mail(src int, fn func()) {
	co.mail[src] = append(co.mail[src], fn)
}

// drainMail applies queued cross-shard messages in (source shard index,
// FIFO) order and returns how many ran. A message may post further
// mail; the drain loops until empty, restarting the scan from shard 0
// each pass so the order is a pure function of what was posted, never
// of goroutine timing.
func (co *Coordinator) drainMail() int {
	total := 0
	for {
		applied := 0
		for i := range co.mail {
			if len(co.mail[i]) == 0 {
				continue
			}
			box := co.mail[i]
			co.mail[i] = co.mail[i][:0]
			applied += len(box)
			for _, fn := range box {
				fn()
			}
		}
		total += applied
		if applied == 0 {
			return total
		}
	}
}

// stepRound executes one round: every shard whose next live event sits
// exactly at t drains all its events at t, then the mailbox drains at
// the barrier. It returns the number of shard events executed.
func (co *Coordinator) stepRound(t Time) int {
	co.active = co.active[:0]
	for i, sh := range co.shards {
		if st, ok := sh.PeekNextEventTime(); ok && st == t {
			co.active = append(co.active, i)
		}
	}
	n := len(co.active)
	if n == 0 {
		return 0
	}
	co.rounds++
	var executed int
	if co.workers > 1 && n > 1 {
		co.parRounds++
		co.wg.Add(n - 1)
		for k := 1; k < n; k++ {
			j := &co.jobs[co.active[k]]
			j.eng = co.shards[co.active[k]]
			j.wg = &co.wg
			j.t = t
			j.steps = 0
			par.Submit(j)
		}
		executed = co.shards[co.active[0]].ProcessEventsAt(t)
		var w0 time.Time
		if co.timing {
			w0 = time.Now()
		}
		co.wg.Wait()
		if co.timing {
			co.barrierNs += time.Since(w0).Nanoseconds()
		}
		for k := 1; k < n; k++ {
			executed += co.jobs[co.active[k]].steps
		}
	} else {
		for _, i := range co.active {
			executed += co.shards[i].ProcessEventsAt(t)
		}
	}
	var m0 time.Time
	if co.timing {
		m0 = time.Now()
	}
	co.mailed = co.drainMail()
	if co.timing {
		co.mailNs += time.Since(m0).Nanoseconds()
	}
	return executed
}

// DrainShards runs rounds until no shard has a live event at exactly t,
// then brings every shard clock up to t. Serial model code (a primary
// tick that has just fanned phase events out to the shards) calls this
// to complete the fan-out synchronously before it continues.
func (co *Coordinator) DrainShards(t Time) int {
	var n int
	for {
		stepped := co.stepRound(t)
		if stepped == 0 {
			break
		}
		n += stepped
		// Every active shard drained all its events at t — including
		// same-timestamp follow-ups it scheduled for itself — so only a
		// barrier message could have armed a new event at t. A mail-free
		// round is therefore the last one; skipping the confirming peek
		// round halves the per-phase round count for the common fan-out
		// (one phase event per shard, no mail).
		if co.mailed == 0 {
			break
		}
	}
	for _, sh := range co.shards {
		sh.AdvanceTo(t)
	}
	return n
}

// Run advances the kernel — primary and shards together — until the
// shared clock reaches until, every queue drains, or the primary is
// stopped. It returns the number of events executed. Shards win ties
// with the primary so that fan-out work scheduled at t finishes before
// the next primary event at t; note that primary callbacks which drive
// their own fan-out via DrainShards leave nothing for Run's tie-break
// to find, which is the common case in the cluster substrate.
func (co *Coordinator) Run(until Time) uint64 {
	var n uint64
	for !co.primary.Stopped() {
		st, sok := co.minShardTime()
		pt, pok := co.primary.PeekNextEventTime()
		if !sok && !pok {
			break
		}
		t := st
		if !sok || (pok && pt < st) {
			t = pt
		}
		if t > until {
			break
		}
		if sok && st == t {
			n += uint64(co.DrainShards(t))
			continue
		}
		if _, ok := co.primary.ProcessNextEvent(); ok {
			n++
		}
	}
	if !co.primary.Stopped() {
		co.primary.AdvanceTo(until)
		for _, sh := range co.shards {
			sh.AdvanceTo(until)
		}
	}
	return n
}

// minShardTime returns the earliest next-event time across shards.
func (co *Coordinator) minShardTime() (Time, bool) {
	var min Time
	found := false
	for _, sh := range co.shards {
		if t, ok := sh.PeekNextEventTime(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}
