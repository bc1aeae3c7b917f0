package cluster

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"evolve/internal/chaos"
	"evolve/internal/obs"
	"evolve/internal/par"
	"evolve/internal/perf"
	"evolve/internal/plo"
	"evolve/internal/resource"
	"evolve/internal/sim"
)

// Sharded tick.
//
// The cluster's entities are partitioned onto max(1, cfg.Shards) shards
// by stable name hash — nodes and apps each land on one shard forever —
// and tick (tick.go) runs each of its three phases on every shard via
// fanOut, which returns only once every shard has finished, between the
// serial sections.
//
// Each phase only writes state its shard owns (its nodes' dense slots
// and scratch, its apps' windows, metric instruments and dense usage
// entry) plus per-app buffers; everything with a canonical global order
// — trace events, fault counters, version stamps, float totals
// — is staged and committed at the barrier in appList/nodeList name
// order. Phase reads of foreign state (an app reading the slowdown of a
// node on another shard, a node summing usage written by apps on other
// shards) always cross a phase barrier, never a concurrent write. That
// discipline, plus per-app keyed random streams (sim.PartitionedRNG),
// is why any shard count — and any worker count — replays
// byte-identically; Cluster.CheckInvariants re-derives the dense state
// from the object graph to catch a phase that breaks it.

// shardState is one shard's partition of the cluster. It is also the
// par.Job that runs the shard's share of a parallel phase: fanOut sets
// jobPhase and jobNow before submitting it, so a tick allocates nothing.
type shardState struct {
	c     *Cluster
	idx   int           // shard index, for phase-timing attribution
	apps  []*appState   // this shard's services, name order
	nodes []*NodeObject // this shard's nodes, name order
	runs  uint64        // phases this shard has run (ScaleRow.ShardEvents)

	jobPhase int
	jobNow   time.Duration
}

// fanState is what the world observes of the fan-out: the round
// counters (one round per phase, three per tick) that phase spans,
// Figure 6 and the checkpoint read, and the shard clock the checkpoint
// records. The marks are the counters at the last phase span.
type fanState struct {
	workers             int // effective workers; <= 1 runs every phase inline
	wg                  sync.WaitGroup
	rounds, parRounds   uint64
	roundsMark, parMark uint64
	clock               time.Duration
}

// initShards builds the (initially empty) shard partitions;
// indexAddNode/indexAddApp route entities to their shard as they are
// created. workers <= 0 defaults to min(n, GOMAXPROCS): more workers
// than shards can never run, and more workers than cores only adds
// scheduler pressure.
func (c *Cluster) initShards(n, workers int) {
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), n)
	}
	c.fan.workers = workers
	c.shards = make([]*shardState, n)
	for i := range c.shards {
		c.shards[i] = &shardState{c: c, idx: i}
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

// fanOut runs phase (perf.PhaseP1, P2 or P3) on every shard at now and
// returns once all have finished. With one worker, or one shard, the
// shards run inline in shard order; otherwise shard 0 runs on the
// calling goroutine and the rest on the par pool behind one WaitGroup.
// Phases write only shard-owned state, so both give the same bytes.
func (c *Cluster) fanOut(phase int, now time.Duration) {
	f := &c.fan
	f.rounds++
	f.clock = now
	if f.workers <= 1 || len(c.shards) == 1 {
		for _, sh := range c.shards {
			sh.run(phase, now)
		}
		return
	}
	f.parRounds++
	f.wg.Add(len(c.shards) - 1)
	for _, sh := range c.shards[1:] {
		sh.jobPhase, sh.jobNow = phase, now
		par.Submit(sh)
	}
	c.shards[0].run(phase, now)
	var w0 time.Time
	if c.phases != nil {
		w0 = time.Now()
	}
	f.wg.Wait()
	if c.phases != nil {
		c.phases.Add(perf.PhaseBarrier, time.Since(w0).Nanoseconds())
	}
}

// Run is the par.Job side of a parallel phase.
func (sh *shardState) Run() {
	sh.run(sh.jobPhase, sh.jobNow)
	sh.c.fan.wg.Done()
}

// run executes one phase over the shard's entities:
//
//	P2: evaluate the shard's apps against their offered load
//	P3: re-derive the usage of the shard's nodes
//	P1: refresh the shard's node slowdowns in the dense slow array the
//	    next tick's P2 gathers from
func (sh *shardState) run(phase int, now time.Duration) {
	c := sh.c
	var t0 time.Time
	if c.phases != nil {
		t0 = time.Now()
	}
	switch phase {
	case perf.PhaseP2:
		for _, st := range sh.apps {
			c.evalApp(st, now)
		}
	case perf.PhaseP3:
		for _, n := range sh.nodes {
			c.sumNodeUsage(n, now)
		}
	case perf.PhaseP1:
		slow := c.hot.slow
		for _, n := range sh.nodes {
			slow[n.slot] = c.nodeSlowdown(n)
		}
	}
	if c.phases != nil {
		c.phases.AddShard(sh.idx, phase, time.Since(t0).Nanoseconds())
	}
	sh.runs++
}

// KernelState is the sharded tick's checkpointed state: the round
// counters, their phase-span marks and the shard clock.
type KernelState struct {
	Rounds, ParRounds   uint64
	RoundsMark, ParMark uint64
	Clock               time.Duration
}

// KernelState returns the fan-out's counters and shard clock.
func (c *Cluster) KernelState() KernelState {
	f := &c.fan
	return KernelState{
		Rounds: f.rounds, ParRounds: f.parRounds,
		RoundsMark: f.roundsMark, ParMark: f.parMark,
		Clock: f.clock,
	}
}

// RestoreKernelState rewinds the fan-out to a checkpointed state. Every
// shard runs in every round, so each shard's run count is the round
// count.
func (c *Cluster) RestoreKernelState(st KernelState) {
	f := &c.fan
	f.rounds, f.parRounds = st.Rounds, st.ParRounds
	f.roundsMark, f.parMark = st.RoundsMark, st.ParMark
	f.clock = st.Clock
	for _, sh := range c.shards {
		sh.runs = st.Rounds
	}
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// EffectiveWorkers returns how many workers a phase may use: 1 means
// every phase runs inline.
func (c *Cluster) EffectiveWorkers() int { return c.fan.workers }

// ShardRuns appends each shard's phase-run count to dst and returns it.
func (c *Cluster) ShardRuns(dst []uint64) []uint64 {
	for _, sh := range c.shards {
		dst = append(dst, sh.runs)
	}
	return dst
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
		st.winSum.add(s)
		st.winSamples++
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
	row := &h.row
	row[colLatMean] = meanLat
	row[colLatP99] = p99Lat
	row[colThroughput] = throughput
	row[colOffered] = lambda
	row[colReplicas] = float64(st.obj.DesiredReplicas)
	row[colReady] = float64(ready)
	for _, k := range resource.Kinds() {
		row[colAlloc+int(k)] = st.obj.Alloc[k]
		row[colUsage+int(k)] = result.Usage[k]
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
	row[colSLI] = sli
	row[colViolation] = violated
	row[colBurnRate] = st.tracker.Burn().BurnRate()
	h.frame.Add(now, row[:])
	if sli > 0 {
		st.histogram(c.met).Observe(sli)
	}
}
