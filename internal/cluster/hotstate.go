package cluster

import (
	"math"
	"time"

	"evolve/internal/chaos"
	"evolve/internal/perf"
	"evolve/internal/resource"
)

// Cache-dense hot state for the tick.
//
// A pointer-walking tick chases *Pod/*Node pointers for every replica
// every tick: P2 sums requests and looks node slowdowns up through
// c.nodes[p.Node] per pod and writes per-pod usage; P3 re-reads every
// pod's usage back off the heap. At 1M pods that is pure
// memory-hierarchy cost — the 5× ns/pod/tick degradation from 10k→1M
// pods in BENCH_6. The tick instead runs on dense per-cluster arrays
// that ARE the authoritative hot-loop representation:
//
//	hot.slow[slot]      P1 result per node, indexed by dense node slot
//	hot.appUsage[idx]   P2 result per app (per-replica usage vector)
//	st.rc (appRunCache) per app: the ready replicas' node slots (byApp
//	                    order), their summed requests, count, and the
//	                    earliest future ReadyAt (readiness horizon)
//	n.pc (nodePodCache) per node: its running pods as app indexes (ready
//	                    services, whose usage is appUsage[idx]) or task
//	                    pointers, in byNode order
//
// The caches are exact, not approximate: they hold the same addends a
// walk of the object graph sums, in the same order, so every float
// result is bit-identical to re-deriving it (Cluster.CheckInvariants
// does exactly that). They are invalidated at the topology mutation
// points (index.go hooks, resize, eviction) and rebuilt lazily at the
// next phase; readiness transitions need no hook because each cache
// carries the earliest ReadyAt that could change its membership and
// rebuilds when the clock reaches it.
//
// The object graph is synced back lazily: per-pod Usage fields are only
// materialised (syncPodUsage) when something outside the tick actually
// reads them — the Pods() accessor or a checkpoint. Per-object version
// stamps are deferred the same way: the tick conceptually updates every
// serving replica and every node, but nothing reads an object's
// ResourceVersion until the next create or update, which only needs the
// counter to have moved. So the commits advance Cluster.version by the
// batch size in one add instead of touching a million Meta fields.

// farFuture is the readiness horizon of a cache with no starting pods.
const farFuture = time.Duration(math.MaxInt64)

// hotState is the dense SoA mirror the tick phases run on.
type hotState struct {
	slow     []float64         // node slot → interference slowdown (P1)
	appUsage []resource.Vector // app hot index → per-replica usage (P2)

	usageStale  bool          // pod .Usage fields lag appUsage
	lastPhaseAt time.Duration // virtual time of the last P2
}

// appRunCache is one app's cached ready-replica aggregate — exactly
// what a walk of the app's replicas would re-derive per tick.
type appRunCache struct {
	ok      bool
	slots   []int32         // node slots of ready running replicas, byApp order
	alloc   resource.Vector // sum of their Requests, byApp order
	ready   int             // len(slots)
	contrib int             // replicas stamped by the last serving tick
	horizon time.Duration   // earliest future ReadyAt among running replicas
}

// nodePodCache is one node's cached running-pod composition for P3.
// entries holds, per pod in byNode order: a service app's hot index
// (usage = hot.appUsage[idx]) or -(k+1) addressing tasks[k] (usage read
// live off the pod, tasks own their usage). Not-yet-ready service pods
// are omitted — their usage is exactly zero, and adding zero vectors to
// the non-negative partial sums is a float identity — but they set the
// readiness horizon so the entry appears the tick they start serving.
type nodePodCache struct {
	ok      bool
	entries []int32
	tasks   []*PodObject
	running int // all Running pods on the node, ready or not
	horizon time.Duration
}

// hotAddNode assigns a dense slot to a new node. Both the incremental
// path (indexAddNode) and ProvisionBulk register through here.
func (c *Cluster) hotAddNode(n *NodeObject) {
	n.slot = int32(len(c.hot.slow))
	c.hot.slow = append(c.hot.slow, 1)
}

// hotAddApp assigns a dense usage index to a new service.
func (c *Cluster) hotAddApp(st *appState) {
	st.hotIdx = int32(len(c.hot.appUsage))
	c.hot.appUsage = append(c.hot.appUsage, resource.Vector{})
}

// hotDirtyApp invalidates an app's run cache after a membership,
// readiness-anchor or request mutation.
func (c *Cluster) hotDirtyApp(app string) {
	if st, ok := c.apps[app]; ok {
		st.rc.ok = false
	}
}

// hotDirtyNode invalidates a node's pod cache after a bind/unbind.
func (c *Cluster) hotDirtyNode(node string) {
	if n, ok := c.nodes[node]; ok {
		n.pc.ok = false
	}
}

// rebuildAppCache re-derives the app's ready aggregate from the byApp
// index: running replicas whose ReadyAt has passed, in byApp order,
// cached until topology changes or the readiness horizon passes.
func (c *Cluster) rebuildAppCache(st *appState, now time.Duration) {
	rc := &st.rc
	rc.slots = rc.slots[:0]
	rc.alloc = resource.Vector{}
	rc.horizon = farFuture
	for _, p := range c.byApp[st.obj.Spec.Name] {
		if p.Phase != Running {
			continue
		}
		if p.ReadyAt > now {
			if p.ReadyAt < rc.horizon {
				rc.horizon = p.ReadyAt
			}
			continue
		}
		rc.slots = append(rc.slots, c.nodes[p.Node].slot)
		rc.alloc = rc.alloc.Add(p.Requests)
	}
	rc.ready = len(rc.slots)
	rc.ok = true
}

// evalApp is one app's share of P2: the cached aggregate replaces the
// per-pod walk, slowdowns gather from hot.slow by slot, the result lands
// in hot.appUsage, and no per-pod usage writes or version stamps happen;
// the telemetry half is appTelemetry.
func (c *Cluster) evalApp(st *appState, now time.Duration) {
	spec := st.obj.Spec
	lambda := st.loadFn(now)
	if lambda < 0 {
		lambda = 0
	}
	rc := &st.rc
	if !rc.ok || rc.horizon <= now {
		c.rebuildAppCache(st, now)
	}

	var result perf.Result
	if rc.ready == 0 {
		result = perf.Result{
			MeanLatency: spec.Model.MaxLatency,
			P99Latency:  spec.Model.MaxLatency,
			Throughput:  0,
			Saturated:   lambda > 0,
		}
		// With nothing serving, no replica consumes anything: zeroing
		// appUsage below clears the usage every replica carried from the
		// last served tick. Owe the commit the version stamps of that
		// one-time clear (one Update per replica that carried usage).
		st.stamps = rc.contrib
		rc.contrib = 0
	} else {
		var slow float64
		for _, s := range rc.slots {
			slow += c.hot.slow[s]
		}
		alloc := rc.alloc.Scale(1 / float64(rc.ready))
		slow /= float64(rc.ready)
		result = spec.Model.Evaluate(lambda, rc.ready, alloc, slow)
		st.stamps = rc.ready
		rc.contrib = rc.ready
	}
	c.hot.appUsage[st.hotIdx] = result.Usage
	c.appTelemetry(st, now, lambda, rc.ready, result)
}

// rebuildNodeCache re-derives the node's running-pod composition from
// the byNode index, preserving byNode order so the P3 gather sums the
// same addends in the same order as a walk of the node's pods.
func (c *Cluster) rebuildNodeCache(n *NodeObject, now time.Duration) {
	pc := &n.pc
	pc.entries = pc.entries[:0]
	pc.tasks = pc.tasks[:0]
	pc.horizon = farFuture
	running := 0
	for _, p := range c.byNode[n.Name] {
		if p.Phase != Running {
			continue
		}
		running++
		if p.IsTask() {
			pc.entries = append(pc.entries, int32(-len(pc.tasks)-1))
			pc.tasks = append(pc.tasks, p)
			continue
		}
		if p.ReadyAt > now {
			if p.ReadyAt < pc.horizon {
				pc.horizon = p.ReadyAt
			}
			continue
		}
		pc.entries = append(pc.entries, c.apps[p.App].hotIdx)
	}
	pc.running = running
	pc.ok = true
}

// sumNodeUsage is one node's share of P3: usage gathers from the
// 16-byte-per-app appUsage table (and live task pods) instead of
// walking every pod object.
func (c *Cluster) sumNodeUsage(n *NodeObject, now time.Duration) {
	pc := &n.pc
	if !pc.ok || pc.horizon <= now {
		c.rebuildNodeCache(n, now)
	}
	var usage resource.Vector
	h := &c.hot
	for _, e := range pc.entries {
		if e >= 0 {
			usage = usage.Add(h.appUsage[e])
		} else {
			usage = usage.Add(pc.tasks[-e-1].Usage)
		}
	}
	n.Usage = usage
	n.running = pc.running
}

// commitApps is the serial barrier after P2, walking appList in name
// order: fault tallies and chaos stats fold into the tick and the
// injector, the per-replica version stamps collapse into one counter
// advance, and the PLO onset/clear events the phase staged are recorded
// in one batch in that same order.
func (c *Cluster) commitApps() {
	chaosOn := c.chaos != nil
	stamps := 0
	c.traceBuf = c.traceBuf[:0]
	for _, st := range c.appList {
		stamps += st.stamps
		st.stamps = 0
		if st.traceSet {
			c.traceBuf = append(c.traceBuf, st.traceEv)
			st.traceSet = false
		}
		c.lastTick.SamplesDropped += st.tickDrop
		c.lastTick.SamplesStale += st.tickStale
		st.tickDrop, st.tickStale = 0, 0
		if chaosOn {
			c.chaos.Absorb(st.chaosStats)
			st.chaosStats = chaos.Stats{}
		}
	}
	c.version += uint64(stamps)
	if len(c.traceBuf) > 0 {
		c.tracer.RecordBatch(c.traceBuf)
	}
}

// commitNodes is the serial barrier after P3: the cluster totals
// accumulate in nodeList order (so the float sums do not depend on the
// shard count) and the per-node version stamps become one advance.
func (c *Cluster) commitNodes(now time.Duration) {
	var capTotal, allocTotal, usageTotal resource.Vector
	emptyNodes := 0
	for _, n := range c.nodeList {
		if !n.Ready {
			continue
		}
		if n.running == 0 {
			emptyNodes++
		}
		capTotal = capTotal.Add(n.Allocatable)
		allocTotal = allocTotal.Add(n.Allocated)
		usageTotal = usageTotal.Add(n.Usage)
	}
	c.version += uint64(len(c.nodeList))
	allocFrac := allocTotal.Div(capTotal)
	usageFrac := usageTotal.Div(capTotal)
	ch := c.clusterSeries()
	for _, k := range resource.Kinds() {
		ch.allocated[k].Add(now, allocFrac[k])
		ch.usage[k].Add(now, usageFrac[k])
	}
	ch.pods.Add(now, float64(len(c.pods)))
	ch.pending.Add(now, float64(len(c.pending)))
	// Consolidation signal: ready nodes hosting nothing could be
	// suspended; the energy model (internal/cost) consumes this.
	ch.emptyNodes.Add(now, float64(emptyNodes))
}

// syncPodUsage materialises per-pod Usage fields from the dense state.
// A service replica carries its app's last evaluated usage iff it was
// running and ready at the last P2; every other replica's usage is zero
// — eviction clears usage and a replica can only become not-ready by
// being re-bound, which passes through eviction. Task pods own their
// usage and are never touched.
func (c *Cluster) syncPodUsage() {
	h := &c.hot
	if !h.usageStale {
		return
	}
	for _, st := range c.appList {
		u := h.appUsage[st.hotIdx]
		for _, p := range c.byApp[st.obj.Spec.Name] {
			if p.Phase == Running && p.ReadyAt <= h.lastPhaseAt {
				p.Usage = u
			} else {
				p.Usage = resource.Vector{}
			}
		}
	}
	h.usageStale = false
}
