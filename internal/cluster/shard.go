package cluster

import (
	"runtime"
	"sort"
	"time"

	"evolve/internal/chaos"
	"evolve/internal/obs"
	"evolve/internal/perf"
	"evolve/internal/plo"
	"evolve/internal/resource"
	"evolve/internal/sim"
)

// Sharded tick.
//
// The cluster's entities are partitioned onto max(1, cfg.Shards) shard
// engines by stable name hash — nodes and apps each land on one shard
// forever — and tick (tick.go) fans each of its three phases out as one
// event per shard at the current timestamp, driven to completion by
// sim.Coordinator.DrainShards between the serial sections.
//
// Each phase only writes state its shard owns (its nodes' dense slots
// and scratch, its apps' windows, metric instruments and dense usage
// entry) plus per-app buffers; everything with a canonical global order
// — trace events, fault counters, registry version stamps, float totals
// — is staged and committed at the barrier in appList/nodeList name
// order. Phase reads of foreign state (an app reading the slowdown of a
// node on another shard, a node summing usage written by apps on other
// shards) always cross a phase barrier, never a concurrent write. That
// discipline, plus per-app keyed random streams (sim.PartitionedRNG),
// is why any shard count — and any worker count — replays
// byte-identically; Cluster.CheckInvariants re-derives the dense state
// from the object graph to catch a phase that breaks it.

// shardState is one shard's partition of the cluster.
type shardState struct {
	c     *Cluster
	eng   *sim.Engine
	idx   int           // shard index, for phase-timing attribution
	apps  []*appState   // this shard's services, name order
	nodes []*NodeObject // this shard's nodes, name order

	// Cached phase closures so the per-tick fan-out allocates nothing.
	p1, p2, p3 func()
}

// initShards builds the coordinator and the (initially empty) shard
// partitions; indexAddNode/indexAddApp route entities to their shard as
// they are created. workers <= 0 defaults to min(n, GOMAXPROCS): more
// workers than shards can never run, and more workers than cores only
// adds scheduler pressure.
func (c *Cluster) initShards(n, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > n {
			workers = n
		}
	}
	c.co = sim.NewCoordinator(c.eng, n, workers)
	c.shards = make([]*shardState, n)
	for i := range c.shards {
		sh := &shardState{c: c, eng: c.co.Shard(i), idx: i}
		sh.p1, sh.p2, sh.p3 = sh.phase1, sh.phase2, sh.phase3
		c.shards[i] = sh
	}
}

// shardOfApp and shardOfNode key the stable entity→shard mapping. The
// kind prefix keeps an app and a node that share a name on independent
// hashes.
func shardOfApp(name string, n int) int  { return sim.ShardOf("app/"+name, n) }
func shardOfNode(name string, n int) int { return sim.ShardOf("node/"+name, n) }

func (sh *shardState) addNode(n *NodeObject) {
	i := sort.Search(len(sh.nodes), func(j int) bool { return sh.nodes[j].Name > n.Name })
	sh.nodes = append(sh.nodes, nil)
	copy(sh.nodes[i+1:], sh.nodes[i:])
	sh.nodes[i] = n
}

func (sh *shardState) addApp(st *appState) {
	name := st.obj.Spec.Name
	i := sort.Search(len(sh.apps), func(j int) bool { return sh.apps[j].obj.Spec.Name > name })
	sh.apps = append(sh.apps, nil)
	copy(sh.apps[i+1:], sh.apps[i:])
	sh.apps[i] = st
}

// phase1 refreshes the interference slowdowns of the shard's nodes in
// the dense slow array the next tick's P2 gathers from.
func (sh *shardState) phase1() {
	c := sh.c
	var t0 time.Time
	if c.phases != nil {
		t0 = time.Now()
	}
	slow := c.hot.slow
	for _, n := range sh.nodes {
		slow[n.slot] = c.nodeSlowdown(n)
	}
	if c.phases != nil {
		c.phases.AddShard(sh.idx, perf.PhaseP1, time.Since(t0).Nanoseconds())
	}
}

// phase2 evaluates the shard's apps against their offered load.
func (sh *shardState) phase2() {
	c := sh.c
	var t0 time.Time
	if c.phases != nil {
		t0 = time.Now()
	}
	now := sh.eng.Now()
	for _, st := range sh.apps {
		c.evalApp(st, now)
	}
	if c.phases != nil {
		c.phases.AddShard(sh.idx, perf.PhaseP2, time.Since(t0).Nanoseconds())
	}
}

// phase3 re-derives the usage of the shard's nodes.
func (sh *shardState) phase3() {
	c := sh.c
	var t0 time.Time
	if c.phases != nil {
		t0 = time.Now()
	}
	now := sh.eng.Now()
	for _, n := range sh.nodes {
		c.sumNodeUsage(n, now)
	}
	if c.phases != nil {
		c.phases.AddShard(sh.idx, perf.PhaseP3, time.Since(t0).Nanoseconds())
	}
}

// appTelemetry is the telemetry half of P2 — noise, chaos sampling,
// window appends, metric handles, PLO tracking. Everything it writes is
// app-owned or staged on the appState (the PLO trace event, fault
// tallies, chaos stats) for commitApps. ready is the serving replica
// count this tick.
func (c *Cluster) appTelemetry(st *appState, now time.Duration, lambda float64, ready int, result perf.Result) {
	spec := st.obj.Spec
	noise := 1.0
	if c.cfg.MeasurementNoise > 0 {
		noise = st.noise.Jitter(1, c.cfg.MeasurementNoise)
	}
	meanLat := result.MeanLatency.Seconds() * noise
	p99Lat := result.P99Latency.Seconds() * noise
	throughput := result.Throughput * noise

	sli := meanLat
	switch spec.PLO.Metric {
	case plo.P99Latency:
		sli = p99Lat
	case plo.Throughput:
		sli = throughput
	}
	// Each sample stands for one metrics interval of service time; the
	// tracker's burn accounting charges it against the error budget.
	// App-owned state only, so the shard worker may write it unstaged.
	st.tracker.ObserveFor(sli, c.cfg.MetricsInterval.Seconds())

	st.winTicks++
	s := sensedSample{sli: sli, mean: meanLat, p99: p99Lat, tput: throughput, offered: lambda, usage: result.Usage, util: result.Utilisation}
	deliver, stale := true, false
	if c.chaos != nil {
		switch v, factor := c.chaos.SampleWith(st.chaosRNG, &st.chaosStats, spec.Name, now, c); v {
		case chaos.SampleDrop:
			deliver = false
			st.tickDrop++
		case chaos.SampleFreeze:
			if st.haveSensed {
				s, stale = st.sensed, true
				st.tickStale++
			} else {
				deliver = false
				st.tickDrop++
			}
		default:
			if factor != 1 {
				s.sli *= factor
				s.mean *= factor
				s.p99 *= factor
				s.tput *= factor
			}
		}
	}
	if deliver {
		st.winSLI = append(st.winSLI, s.sli)
		st.winMean = append(st.winMean, s.mean)
		st.winP99 = append(st.winP99, s.p99)
		st.winThroughput = append(st.winThroughput, s.tput)
		st.winOffered = append(st.winOffered, s.offered)
		st.winUsage = append(st.winUsage, s.usage)
		st.winUtil = append(st.winUtil, s.util)
		if stale {
			st.winStale++
		} else {
			st.sensed, st.haveSensed = s, true
		}
	}
	if result.Saturated {
		st.winSaturated = true
	}

	h := st.handles(c.met)
	h.latMean.Add(now, meanLat)
	h.latP99.Add(now, p99Lat)
	h.throughput.Add(now, throughput)
	h.offered.Add(now, lambda)
	h.replicas.Add(now, float64(st.obj.DesiredReplicas))
	h.ready.Add(now, float64(ready))
	for _, k := range resource.Kinds() {
		h.alloc[k].Add(now, st.obj.Alloc[k])
		h.usage[k].Add(now, result.Usage[k])
	}
	violated := 0.0
	if st.tracker.PLO().Violated(sli) {
		st.violationsCounter(c.met).Inc()
		violated = 1
	}
	if isViolated := violated == 1; isViolated != st.wasViolated {
		st.wasViolated = isViolated
		if c.tracer.Enabled() {
			verb := obs.VerbClear
			if isViolated {
				verb = obs.VerbOnset
			}
			st.traceEv = obs.Event{
				At: now, Kind: obs.KindPLO, Verb: verb, App: spec.Name,
				SLI: sli, Objective: spec.PLO.Target, PerfErr: spec.PLO.Error(sli),
			}
			st.traceSet = true
		}
	}
	h.sli.Add(now, sli)
	h.violation.Add(now, violated)
	h.burnRate.Add(now, st.tracker.Burn().BurnRate())
	if sli > 0 {
		st.histogram(c.met).Observe(sli)
	}
}
