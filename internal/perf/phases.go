package perf

// Phase breakdown for the sharded tick. The cluster substrate times each
// tick phase — the per-shard parallel walks (P1 slowdown, P2 app eval,
// P3 node usage), the serial barrier flushes, and the fan-out's
// barrier-wait overhead — into a PhaseBreakdown so the bench
// harness can attribute wall time instead of reporting one opaque
// ms/tick number. Recording is plain int64 adds behind a nil check on
// the cluster side, cheap enough to leave compiled into the hot path.

// Tick phases, in execution order. BarrierWait is the fan-out's
// kernel-side overhead; the rest are model-side sections of the cluster
// tick. Mailbox keeps its index for older records and always reads 0:
// the fan-out has no cross-shard mail.
const (
	PhaseP1         = iota // per-node interference slowdown
	PhaseP2                // per-app evaluation
	PhaseFlushApps         // app-side barrier commit (serial, appList order)
	PhaseP3                // per-node usage aggregation
	PhaseFlushNodes        // node-side barrier commit + cluster totals
	PhaseMailbox           // unused since the fan-out replaced the shard engines
	PhaseBarrier           // fan-out wg.Wait in parallel rounds
	// Control-plane phases (appended so older records' indices hold):
	// the control period's read-only evaluate fan-out, its serial apply
	// walk, and the tick-time pending-backlog scheduling drain.
	PhaseCtrlEval
	PhaseCtrlApply
	PhaseSchedDrain
	NumPhases
)

// PhaseNames maps phase index to the stable JSON/summary label.
var PhaseNames = [NumPhases]string{
	"p1", "p2", "flush_apps", "p3", "flush_nodes", "mailbox", "barrier_wait",
	"ctrl_eval", "ctrl_apply", "sched_drain",
}

// parallelPhase reports whether a phase runs sharded (its time lives in
// the per-shard rows) rather than serially at the barrier.
func parallelPhase(p int) bool {
	return p == PhaseP1 || p == PhaseP2 || p == PhaseP3
}

// PhaseBreakdown accumulates per-phase wall nanoseconds across ticks.
// Serial phases (flushes, barrier wait) land in TotalNs; the
// parallel phases (P1, P2, P3) land in their shard's row and are summed
// on read, so the per-shard attribution survives to the summary. Each
// shard row is written only by the goroutine running that shard's phase
// event, and rows are read only from serial sections after the round
// barrier, so no locking is needed.
type PhaseBreakdown struct {
	Ticks   uint64
	TotalNs [NumPhases]int64
	ShardNs [][NumPhases]int64 // [shard][phase], parallel phases only
	// TickMaxNs is the slowest single tick observed (whole-tick wall
	// time, recorded via ObserveTick) — the tail the per-phase means
	// hide. Zero when the caller never times whole ticks.
	TickMaxNs int64
}

// NewPhaseBreakdown returns a breakdown with shard rows for nshards.
func NewPhaseBreakdown(nshards int) *PhaseBreakdown {
	if nshards < 1 {
		nshards = 1
	}
	return &PhaseBreakdown{ShardNs: make([][NumPhases]int64, nshards)}
}

// Reset zeroes every counter, keeping the shard rows.
func (b *PhaseBreakdown) Reset() {
	b.Ticks = 0
	b.TotalNs = [NumPhases]int64{}
	b.TickMaxNs = 0
	for i := range b.ShardNs {
		b.ShardNs[i] = [NumPhases]int64{}
	}
}

// ObserveTick records one whole tick's wall time, keeping the maximum.
func (b *PhaseBreakdown) ObserveTick(ns int64) {
	if ns > b.TickMaxNs {
		b.TickMaxNs = ns
	}
}

// Add accumulates ns into a serial phase's total.
func (b *PhaseBreakdown) Add(phase int, ns int64) { b.TotalNs[phase] += ns }

// AddShard accumulates ns into shard's row for a parallel phase.
func (b *PhaseBreakdown) AddShard(shard, phase int, ns int64) {
	b.ShardNs[shard][phase] += ns
}

// PhaseTotalNs returns a phase's accumulated nanoseconds: the serial
// total, plus the summed shard rows for parallel phases (summed CPU
// time across shards, not wall time).
func (b *PhaseBreakdown) PhaseTotalNs(phase int) int64 {
	ns := b.TotalNs[phase]
	if parallelPhase(phase) {
		for i := range b.ShardNs {
			ns += b.ShardNs[i][phase]
		}
	}
	return ns
}

// PhaseMS is one phase's mean milliseconds per tick, as exported in
// bench rows.
type PhaseMS struct {
	Phase string  `json:"phase"`
	MS    float64 `json:"ms_per_tick"`
}

// PerTickMS summarises the breakdown as mean milliseconds per tick per
// phase, in execution order. Zero ticks yields totals over one tick.
func (b *PhaseBreakdown) PerTickMS() []PhaseMS {
	out := make([]PhaseMS, NumPhases)
	ticks := float64(b.Ticks)
	if ticks == 0 {
		ticks = 1
	}
	for p := 0; p < NumPhases; p++ {
		out[p] = PhaseMS{Phase: PhaseNames[p], MS: float64(b.PhaseTotalNs(p)) / ticks / 1e6}
	}
	return out
}
