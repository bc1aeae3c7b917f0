package cluster

import (
	"fmt"
	"time"

	"evolve/internal/obs"
	"evolve/internal/perf"
)

// Span emission (the causal layer over the event trace — see
// internal/obs/span.go). All spans are recorded from serial control
// paths — schedulePending/bind, eviction, decision application, gang
// admission, the post-barrier section of the sharded tick — so span IDs
// are assigned in a deterministic order at any shard/worker count. A
// span's Shard field carries the kernel shard that owns its app (0 in a
// one-shard world; -1 marks spans no single shard owns) and is the only
// field allowed to differ between runs at different shard counts.
//
// Because the simulation is deterministic, intervals are recorded
// completed: a bind already knows ReadyAt, so the root lifecycle span
// is emitted at first bind with its end in the (virtual) future.

// appShard returns the kernel shard that owns an app.
func (c *Cluster) appShard(app string) int32 {
	return int32(shardOfApp(app, len(c.shards)))
}

// emitBindSpans records the spans a successful bind completes: on first
// bind the pod's root lifecycle span (created → ready, parented to the
// decision/gang span that caused it), always the pending segment that
// just ended, and a startup segment when readiness lags the bind. The
// matching latency observations land in the tracer's exemplar
// histograms; the always-on registry histograms are observed by bind
// itself so untraced runs measure the same intervals.
func (c *Cluster) emitBindSpans(p *PodObject, first bool) {
	now := c.now()
	shard := c.appShard(p.App)
	if first {
		p.spanID = c.tracer.RecordSpan(obs.Span{
			Kind: obs.SpanLifecycle, Parent: p.causeSpan,
			App: p.App, Object: p.Name, Node: p.Node,
			Shard: shard, Start: p.CreatedAt, End: p.ReadyAt,
		})
	}
	pendID := c.tracer.RecordSpan(obs.Span{
		Kind: obs.SpanPending, Parent: p.spanID,
		App: p.App, Object: p.Name,
		Shard: shard, Start: p.pendingSince, End: now,
	})
	c.tracer.ObserveLatency(obs.LatencySchedule, (now - p.pendingSince).Seconds(), pendID)
	if p.ReadyAt > now {
		c.tracer.RecordSpan(obs.Span{
			Kind: obs.SpanStartup, Parent: p.spanID,
			App: p.App, Object: p.Name, Node: p.Node,
			Shard: shard, Start: now, End: p.ReadyAt,
		})
	}
	if first {
		c.tracer.ObserveLatency(obs.LatencyTimeToReady, (p.ReadyAt - p.CreatedAt).Seconds(), p.spanID)
		if p.causeSpan != 0 {
			c.tracer.ObserveLatency(obs.LatencyDecisionEffect, (now - p.causeAt).Seconds(), p.causeSpan)
		}
	}
}

// emitSegmentSpan records the running segment a pod just completed
// (bind → now), parented to its lifecycle span, with the reason it
// ended ("preempted", "node-failure", "killed", "migrated",
// "completed"). node is passed explicitly because eviction clears
// p.Node before the accounting runs.
func (c *Cluster) emitSegmentSpan(p *PodObject, node, reason string) {
	if p.spanID == 0 || !p.everBound {
		return
	}
	c.tracer.RecordSpan(obs.Span{
		Kind: obs.SpanSegment, Parent: p.spanID,
		App: p.App, Object: p.Name, Node: node, Detail: reason,
		Shard: c.appShard(p.App), Start: p.BoundAt, End: c.now(),
	})
}

// emitPhaseSpans lifts the tick's per-phase wall-time deltas out of the
// perf.PhaseBreakdown as instant spans (WallNs carries the measured
// time) and feeds the tracer's phase histograms. Runs only when phase
// timing AND tracing are both on — a bench/debug configuration, never
// the determinism suites — so the fmt/formatting cost is acceptable.
func (c *Cluster) emitPhaseSpans(now time.Duration, pb *perf.PhaseBreakdown) {
	f := &c.fan
	rounds := f.rounds - f.roundsMark
	f.roundsMark, f.parMark = f.rounds, f.parRounds
	for ph := 0; ph < perf.NumPhases; ph++ {
		total := pb.PhaseTotalNs(ph)
		delta := total - c.phasePrev[ph]
		c.phasePrev[ph] = total
		if delta <= 0 {
			continue
		}
		detail := ""
		if ph == perf.PhaseBarrier && rounds > 0 {
			detail = fmt.Sprintf("rounds=%d", rounds)
		}
		id := c.tracer.RecordSpan(obs.Span{
			Kind: obs.SpanPhase, Object: perf.PhaseNames[ph], Detail: detail,
			Shard: -1, Start: now, End: now, WallNs: delta,
		})
		c.tracer.ObservePhaseLatency(ph, perf.PhaseNames[ph], float64(delta)/1e9, id)
	}
}

// LatencySummary returns p95 upper bounds (seconds) from the always-on
// registry latency histograms: schedule latency (pending → bound),
// time-to-ready (created → first ready) and decision-to-effect lag
// (decision applied → first bind it caused). Zero when no pod has
// bound. These are derived purely from virtual timestamps, so they are
// byte-identical at any shard/worker count.
func (c *Cluster) LatencySummary() (schedP95, readyP95, effectP95 float64) {
	if h, ok := c.met.GetHistogram("sched/latency"); ok {
		schedP95 = h.Quantile(0.95)
	}
	if h, ok := c.met.GetHistogram("sched/time-to-ready"); ok {
		readyP95 = h.Quantile(0.95)
	}
	if h, ok := c.met.GetHistogram("control/decision-effect"); ok {
		effectP95 = h.Quantile(0.95)
	}
	return schedP95, readyP95, effectP95
}
