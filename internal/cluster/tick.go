package cluster

import (
	"time"

	"evolve/internal/perf"
	"evolve/internal/resource"
)

// tick is the cluster's heartbeat: place pending pods, evaluate every
// service against its offered load, refresh usage accounting and record
// the telemetry the controllers and experiments consume.
//
// After the pending drain the work runs as three phases, each fanned out
// as one event per shard at the current instant and driven to its
// barrier by sim.Coordinator.DrainShards (see shard.go for the phase
// discipline, hotstate.go for the dense arrays the phases read and
// write):
//
//	P2 per app:  load → perf model → telemetry windows and series
//	P3 per node: usage summation from the node's running pods
//	P1 per node: interference slowdown from that usage, which the next
//	             tick's P2 reads (telemetry lag)
//
// with serial commits in canonical order after P2 (commitApps) and P3
// (commitNodes). P1 runs last so that, between ticks, hot.slow always
// equals the slowdown of each node's current usage; FailNode and
// RestoreNode refresh it when they change a node outside the tick.
//
// The phases run to completion inside this call — before the tick
// event returns — so a control-loop event queued at the same timestamp
// observes a fully consistent cluster. In steady state (nothing
// pending, topology unchanged) a tick performs no allocations
// (TestTickSteadyStateAllocs enforces this).
func (c *Cluster) tick() {
	now := c.now()
	c.lastTick = TickResult{At: now}
	c.schedulePending()

	pb := c.phases
	var tickT0, t0 time.Time
	if pb != nil {
		tickT0 = time.Now() // whole-kernel wall time, for the tick-max tail
	}
	for _, sh := range c.shards {
		sh.eng.Post(now, sh.p2)
	}
	c.co.DrainShards(now)
	if pb != nil {
		t0 = time.Now()
	}
	c.commitApps()
	if pb != nil {
		pb.Add(perf.PhaseFlushApps, time.Since(t0).Nanoseconds())
	}
	for _, sh := range c.shards {
		sh.eng.Post(now, sh.p3)
	}
	c.co.DrainShards(now)
	if pb != nil {
		t0 = time.Now()
	}
	c.commitNodes(now)
	c.hot.usageStale = true
	c.hot.lastPhaseAt = now
	if pb != nil {
		pb.Add(perf.PhaseFlushNodes, time.Since(t0).Nanoseconds())
	}
	for _, sh := range c.shards {
		sh.eng.Post(now, sh.p1)
	}
	c.co.DrainShards(now)
	if pb != nil {
		bar, mail := c.co.TakeTimings()
		pb.Add(perf.PhaseBarrier, bar)
		pb.Add(perf.PhaseMailbox, mail)
		pb.Ticks++
		pb.ObserveTick(time.Since(tickT0).Nanoseconds())
		if c.tracer.Enabled() {
			// Phase timing plus tracing is a bench/debug configuration;
			// lift this tick's per-phase deltas into instant spans.
			c.emitPhaseSpans(now, pb, c.co)
		}
	}
}

// nodeSlowdown returns the interference slowdown of a node's current
// usage; P1 stores it per node for the next tick's P2.
func (c *Cluster) nodeSlowdown(n *NodeObject) float64 {
	if !c.cfg.Interference || !n.Ready {
		return 1
	}
	pressure, _ := n.Usage.DominantShare(n.Allocatable)
	return perf.InterferenceSlowdown(pressure)
}

// UtilisationSummary returns the time-weighted mean cluster allocation
// and usage fractions (of allocatable capacity, per resource) over
// (from, to] — the headline utilisation numbers of the Table 1
// comparison.
func (c *Cluster) UtilisationSummary(from, to time.Duration) (allocFrac, usageFrac resource.Vector) {
	for _, k := range resource.Kinds() {
		allocFrac[k] = c.met.Series("cluster/allocated/"+k.String()).TimeWeightedMean(from, to)
		usageFrac[k] = c.met.Series("cluster/usage/"+k.String()).TimeWeightedMean(from, to)
	}
	return allocFrac, usageFrac
}
