package cluster

import (
	"fmt"
	"time"

	"evolve/internal/chaos"
	"evolve/internal/metrics"
	"evolve/internal/obs"
	"evolve/internal/perf"
	"evolve/internal/plo"
	"evolve/internal/resource"
	"evolve/internal/sched"
	"evolve/internal/sim"
)

// Config parameterises the cluster substrate.
type Config struct {
	// MetricsInterval is the telemetry/actuation tick (default 5s).
	MetricsInterval time.Duration
	// Interference enables node-level contention slowdowns.
	Interference bool
	// SchedulerPolicy selects the placement policy.
	SchedulerPolicy sched.Policy
	// MeasurementNoise adds multiplicative jitter to SLI measurements
	// (fraction, e.g. 0.05); real telemetry is never clean.
	MeasurementNoise float64
	// Shards splits the tick's per-node and per-app phases across this
	// many partitions, each phase run on every shard before the tick
	// continues. New normalises values below 1 to 1: every world
	// runs the same phased tick, one shard is simply the smallest
	// partition. Entities are assigned to shards by stable name hash,
	// and all cross-shard effects are applied at phase barriers in
	// canonical entity order, so results are byte-identical for every
	// shard count.
	Shards int
	// ShardWorkers switches a phase's shards onto the shared worker pool
	// when above 1 (0 = min(Shards, GOMAXPROCS); 1 runs them inline, in
	// shard order). Results are identical either way.
	ShardWorkers int
	// MetricsHistory is every telemetry series' retention window (see
	// metrics.Series); 0 keeps every sample for the whole run.
	MetricsHistory time.Duration
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{
		MetricsInterval:  5 * time.Second,
		Interference:     true,
		SchedulerPolicy:  sched.PolicySpread,
		MeasurementNoise: 0.03,
	}
}

// appState is the cluster-internal bookkeeping for one service.
type appState struct {
	obj    *AppObject
	loadFn func(now time.Duration) float64

	tracker *plo.Tracker

	// Sensor window since the last Observe: winSum adds up the delivered
	// samples from zero in arrival order and winSamples counts them, so
	// Observe's means are bit-identical to averaging the samples
	// themselves.
	winSum       sensedSample
	winSamples   int
	winSaturated bool

	// Sensor-path health since the last Observe: winTicks counts the
	// metric ticks the window spanned (expected samples), winStale the
	// frozen substitutes delivered. sensed caches the last sample that
	// actually reached the sensor path, for freeze faults to replay.
	winTicks   int
	winStale   int
	sensed     sensedSample
	haveSensed bool

	lastObserve time.Duration
	migrateDebt int  // consecutive ticks with throttled resize
	wasViolated bool // PLO state last tick, for onset/clear trace events

	// Causal anchor of the most recent applied decision (spans.go):
	// replicas created while applying it inherit both so their bind can
	// report the decision→effect lag. decisionSpan stays zero untraced.
	decisionAt   time.Duration
	decisionSpan uint64

	// h caches the per-service metric handles (see handles.go); its
	// frame is nil until the first tick resolves them.
	h appHandles

	// Per-app random streams (sim.PartitionedRNG): noise drives the
	// measurement jitter, chaosRNG the injector's probability draws.
	// Keying them by app — instead of drawing from one shared stream in
	// app order — is what makes a tick's randomness independent of how
	// apps are partitioned across shards.
	noise    *sim.RNG
	chaosRNG *sim.RNG

	// Phase buffers (shard.go): writes that must not land in place from
	// a shard goroutine are staged here and committed at the barrier in
	// appList order (commitApps).
	traceEv    obs.Event // staged PLO onset/clear event
	traceSet   bool
	tickDrop   int // SamplesDropped owed to lastTick
	tickStale  int // SamplesStale owed to lastTick
	chaosStats chaos.Stats

	// Dense hot state (hotstate.go): hotIdx is the app's index into the
	// dense appUsage array, rc the cached ready-replica aggregate, stamps
	// the deferred version stamps owed to the commit.
	hotIdx int32
	rc     appRunCache
	stamps int
}

// sensedSample is one telemetry sample as the sensor path saw it (after
// any chaos distortion) — what a freeze fault replays.
type sensedSample struct {
	sli, mean, p99, tput, offered float64
	usage, util                   resource.Vector
}

// add adds s to the running sum a, field by field.
func (a *sensedSample) add(s sensedSample) {
	a.sli += s.sli
	a.mean += s.mean
	a.p99 += s.p99
	a.tput += s.tput
	a.offered += s.offered
	a.usage = a.usage.Add(s.usage)
	a.util = a.util.Add(s.util)
}

// Cluster is the simulated substrate. Not safe for concurrent use; all
// access happens on the simulation goroutine.
type Cluster struct {
	eng  *sim.Engine
	prng *sim.PartitionedRNG // per-entity stable streams (noise, chaos)
	met  *metrics.Registry
	cfg  Config
	sch  *sched.Scheduler

	nodes map[string]*NodeObject
	pods  map[string]*PodObject
	apps  map[string]*appState

	// Incremental indexes — kept sorted at every mutation so hot paths
	// never re-derive views (see index.go for the invariants).
	byName   []*PodObject            // every live pod, name order
	byNode   map[string][]*PodObject // bound pods per node, name order
	byApp    map[string][]*PodObject // live service replicas per app, (CreatedAt, name) order
	pending  []*PodObject            // pending pods: priority desc, FIFO, name (see draining)
	nodeList []*NodeObject           // every node, name order
	appList  []*appState             // services, name order
	appNames []string                // appList's names, rebuilt by AppNames

	// Reusable scratch. The simulation is single-threaded and the tick
	// never re-enters itself, so one buffer of each suffices; reuse is
	// what makes the steady-state tick allocation-free. snap is the
	// reusable scheduling view with its class heap (see sched.Snapshot):
	// rebuilt once per scheduling round, patched in place on every bind,
	// drained in place on node failure. draining is set while a round
	// walks its queue: binds then leave their entries in pending, and
	// the round ends with one compaction (compactPending).
	snap         *sched.Snapshot
	scratchQueue []*PodObject
	draining     bool
	h            *clusterHandles

	// Sharded tick. shards holds each shard's partition of nodes and
	// apps and fan the fan-out's counters (see shard.go); hot is the
	// dense SoA mirror the tick runs on (hotstate.go).
	shards []*shardState
	fan    fanState
	hot    hotState

	// phases, when non-nil, accumulates the per-tick phase timing
	// breakdown (EnablePhaseTiming); traceBuf stages PLO trace events
	// for batch emission at the commitApps barrier. phasePrev remembers each
	// phase's cumulative total at the last emitted phase span so
	// emitPhaseSpans (spans.go) can lift per-tick deltas out of it.
	phases    *perf.PhaseBreakdown
	traceBuf  []obs.Event
	phasePrev [perf.NumPhases]int64

	// version is the object version counter: every create and update
	// stamps the next value into the object's ResourceVersion (see
	// create, update and the tick's deferred stamps in hotstate.go).
	version uint64
	podSeq  uint64
	started bool
	events  eventLog
	tracer  *obs.Tracer

	// Delayed-actuation bookkeeping (ckpt.go): chaos-delayed decision
	// applies still in flight, keyed by a monotonic sequence so a
	// checkpoint can rebuild their timers. Empty when chaos is off.
	delaySeq     uint64
	pendingApply map[string]delayedApply

	// chaos is the optional fault injector on the sensor/actuation paths
	// (nil when off); lastTick accumulates the faults absorbed since the
	// most recent tick began (see faults.go).
	chaos    *chaos.Injector
	lastTick TickResult

	// Control-period actuation batch (service.go): while the control
	// loop's serial apply walk is inside Begin/EndActuationBatch, the
	// per-decision largest-node cap is served from this cache instead of
	// rescanning nodeList per app. Topology and readiness cannot change
	// within one engine event, so the cached vector is bit-exact.
	ctrlBatch     bool
	ctrlBiggest   resource.Vector
	ctrlBiggestOK bool
}

// New builds a cluster on the given engine.
func New(eng *sim.Engine, cfg Config) *Cluster {
	if cfg.MetricsInterval <= 0 {
		cfg.MetricsInterval = 5 * time.Second
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	sch := sched.New(cfg.SchedulerPolicy)
	c := &Cluster{
		eng: eng,
		// One engine draw seeds every per-entity stream; taken here, in
		// New, so the derived streams do not depend on cluster topology
		// or shard count.
		prng:  sim.NewPartitionedRNG(eng.RNG().Int63()),
		met:   metrics.NewWindowedRegistry(cfg.MetricsHistory),
		cfg:   cfg,
		sch:   sch,
		nodes: make(map[string]*NodeObject),
		pods:  make(map[string]*PodObject),
		apps:  make(map[string]*appState),

		byNode: make(map[string][]*PodObject),
		byApp:  make(map[string][]*PodObject),
		snap:   sched.NewSnapshot(),
		tracer: obs.Nop(),

		pendingApply: make(map[string]delayedApply),
	}
	c.initShards(cfg.Shards, cfg.ShardWorkers)
	return c
}

// EnablePhaseTiming switches on the per-tick phase breakdown (and the
// fan-out's barrier-wait timer) and returns the accumulator the tick
// records into (see internal/perf). Call before Run; the breakdown can
// be Reset between measurement windows.
func (c *Cluster) EnablePhaseTiming() *perf.PhaseBreakdown {
	c.phases = perf.NewPhaseBreakdown(len(c.shards))
	c.phasePrev = [perf.NumPhases]int64{}
	return c.phases
}

// Run advances the simulation until the clock reaches the absolute time
// until and returns the number of events executed. The shard clock
// follows the engine's to until, as the checkpoint records it.
func (c *Cluster) Run(until time.Duration) uint64 {
	n := c.eng.Run(until)
	if !c.eng.Stopped() && c.fan.clock < until {
		c.fan.clock = until
	}
	return n
}

// Tracer returns the cluster's decision tracer (the shared no-op tracer
// until SetTracer installs a real one).
func (c *Cluster) Tracer() *obs.Tracer { return c.tracer }

// SetTracer installs a decision tracer. When the tracer is enabled the
// cluster also mirrors the object lifecycle (added/deleted) onto it,
// starting with the objects that already exist, replayed as added in
// kind/name order: apps, then nodes, then pods, each by name.
func (c *Cluster) SetTracer(t *obs.Tracer) {
	if t == nil {
		t = obs.Nop()
	}
	c.tracer = t
	if !t.Enabled() {
		return
	}
	for _, st := range c.appList {
		c.traceLifecycle(obs.VerbAdded, &st.obj.Meta)
	}
	for _, n := range c.nodeList {
		c.traceLifecycle(obs.VerbAdded, &n.Meta)
	}
	for _, p := range c.byName {
		c.traceLifecycle(obs.VerbAdded, &p.Meta)
	}
}

// traceLifecycle records an object's creation or deletion on an enabled
// tracer.
func (c *Cluster) traceLifecycle(verb string, m *Meta) {
	if c.tracer.Enabled() {
		c.tracer.Record(obs.Event{At: c.now(), Kind: obs.KindRegistry, Verb: verb, Object: m.Kind + "/" + m.Name})
	}
}

// Engine returns the simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Metrics returns the metrics registry.
func (c *Cluster) Metrics() *metrics.Registry { return c.met }

// Config returns the active configuration.
func (c *Cluster) Config() Config { return c.cfg }

// now is shorthand for the current virtual time.
func (c *Cluster) now() time.Duration { return c.eng.Now() }

// AddNode registers a node; 6% of capacity is reserved for the system,
// mirroring kubelet reservations.
func (c *Cluster) AddNode(name string, capacity resource.Vector) error {
	return c.AddLabeledNode(name, capacity, nil)
}

// AddLabeledNode registers a node carrying operator labels ("pool=hpc")
// that pod node-selectors can match against.
func (c *Cluster) AddLabeledNode(name string, capacity resource.Vector, labels map[string]string) error {
	if name == "" {
		return fmt.Errorf("cluster: node needs a name")
	}
	if _, ok := c.nodes[name]; ok {
		return fmt.Errorf("cluster: node %s already exists", name)
	}
	if !capacity.NonNegative() || capacity.IsZero() {
		return fmt.Errorf("cluster: node %s has invalid capacity %v", name, capacity)
	}
	n := &NodeObject{
		Meta:        Meta{Kind: KindNode, Name: name, Labels: copyLabels(labels)},
		Capacity:    capacity,
		Allocatable: capacity.Scale(0.94),
		Ready:       true,
	}
	c.create(&n.Meta)
	c.nodes[name] = n
	c.indexAddNode(n)
	return nil
}

func copyLabels(labels map[string]string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		out[k] = v
	}
	return out
}

// AddNodes registers count identical nodes named prefix-0..count-1.
func (c *Cluster) AddNodes(prefix string, count int, capacity resource.Vector) error {
	for i := 0; i < count; i++ {
		if err := c.AddNode(fmt.Sprintf("%s-%d", prefix, i), capacity); err != nil {
			return err
		}
	}
	return nil
}

// Nodes returns all nodes sorted by name.
func (c *Cluster) Nodes() []*NodeObject {
	return append([]*NodeObject(nil), c.nodeList...)
}

// Capacity returns the summed allocatable capacity of ready nodes.
func (c *Cluster) Capacity() resource.Vector {
	var total resource.Vector
	for _, n := range c.nodeList {
		if n.Ready {
			total = total.Add(n.Allocatable)
		}
	}
	return total
}

// largestNodeAllocatable returns the component-wise maximum allocatable
// vector over ready nodes — the biggest pod shape that can possibly be
// hosted. ok is false when no node is ready.
func (c *Cluster) largestNodeAllocatable() (resource.Vector, bool) {
	var biggest resource.Vector
	any := false
	for _, n := range c.nodeList {
		if !n.Ready {
			continue
		}
		biggest = biggest.Max(n.Allocatable)
		any = true
	}
	return biggest, any
}

// NodeInfos returns the scheduler's view of the ready nodes — public so
// queueing layers (e.g. EASY backfill reservations) can reason about
// placement hypothetically without mutating anything.
func (c *Cluster) NodeInfos() []sched.NodeInfo { return c.nodeInfos() }

// Scheduler returns the cluster's placement engine for hypothetical
// queries (Schedule/ScheduleGang on snapshots never mutate state).
func (c *Cluster) Scheduler() *sched.Scheduler { return c.sch }

// nodeInfos snapshots ready nodes for the scheduler, sorted by name.
// Each call returns freshly allocated slices, so callers (gang
// scheduling, the public NodeInfos, queueing layers) may hold the result
// across cluster mutations; the pending-pod loop uses the reusable
// snapshot in refreshSnapshot instead.
func (c *Cluster) nodeInfos() []sched.NodeInfo {
	infos := make([]sched.NodeInfo, 0, len(c.nodeList))
	for _, n := range c.nodeList {
		if !n.Ready {
			continue
		}
		info := sched.NodeInfo{
			Name:        n.Name,
			Allocatable: n.Allocatable,
			Allocated:   n.Allocated,
			Labels:      n.Meta.Labels,
		}
		for _, p := range c.byNode[n.Name] {
			info.Pods = append(info.Pods, sched.PodInfo{
				Name: p.Name, App: p.App, Requests: p.Requests, Priority: p.Priority,
			})
		}
		infos = append(infos, info)
	}
	return infos
}

// podsOnNode returns the index slice of pods bound to the node, in name
// order. Callers must not mutate it, and must copy it first if they
// evict or delete while iterating.
func (c *Cluster) podsOnNode(node string) []*PodObject {
	return c.byNode[node]
}

// Pods returns all live pods sorted by name. The tick keeps per-pod
// usage in its dense state; this accessor materialises it first
// (syncPodUsage), so callers always see each pod's current usage.
func (c *Cluster) Pods() []*PodObject {
	c.syncPodUsage()
	return append([]*PodObject(nil), c.byName...)
}

// PendingPods returns pods awaiting placement, sorted by priority
// (descending) then creation time then name.
func (c *Cluster) PendingPods() []*PodObject {
	return append([]*PodObject(nil), c.pending...)
}

// Start arms the periodic telemetry/actuation tick. Call once after the
// initial topology is in place.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.eng.TagNext("tick", "")
	c.eng.Every(c.cfg.MetricsInterval, c.tick)
}

// bind grants a pod to a node and updates accounting.
func (c *Cluster) bind(p *PodObject, nodeName string) error {
	n, ok := c.nodes[nodeName]
	if !ok || !n.Ready {
		return fmt.Errorf("cluster: bind %s to unknown/unready node %s", p.Name, nodeName)
	}
	p.Node = nodeName
	p.Phase = Running
	p.BoundAt = c.now()
	p.ReadyAt = c.now()
	if !p.IsTask() {
		if st, ok := c.apps[p.App]; ok {
			p.ReadyAt = c.now() + st.obj.Spec.StartupDelay
		}
	}
	n.Allocated = n.Allocated.Add(p.Requests)
	c.indexBind(p)
	c.met.Counter("sched/binds").Inc()
	c.recordEvent(kindPodScheduled, p.Name, msgBound, eventArgs{s: [2]string{nodeName}, vec: p.Requests})
	if c.tracer.Enabled() {
		c.tracer.Record(obs.Event{
			At: c.now(), Kind: obs.KindSched, Verb: obs.VerbBind,
			App: p.App, Object: p.Name, Node: nodeName, Alloc: p.Requests,
		})
	}
	// Latency accounting and span emission. The registry histograms are
	// always on — untraced harness runs measure the same intervals the
	// span layer annotates — and first-bind detection keys the pod's root
	// lifecycle span plus the created→ready and decision→effect samples.
	first := !p.everBound
	p.everBound = true
	lh := c.bindLatency()
	lh.schedLat.Observe((c.now() - p.pendingSince).Seconds())
	if first {
		lh.readyLat.Observe((p.ReadyAt - p.CreatedAt).Seconds())
		if p.causeAt != 0 {
			lh.effectLat.Observe((c.now() - p.causeAt).Seconds())
		}
	}
	if c.tracer.Enabled() {
		c.emitBindSpans(p, first)
	}
	c.update(&p.Meta)
	c.update(&n.Meta)
	if p.IsTask() {
		c.armTaskCompletion(p)
	}
	return nil
}

// release frees a pod's node allocation (if bound).
func (c *Cluster) release(p *PodObject) {
	if p.Node == "" {
		return
	}
	c.indexUnbind(p)
	if n, ok := c.nodes[p.Node]; ok {
		n.Allocated = snapDust(n.Allocated.Sub(p.Requests).ClampMin(0))
		c.update(&n.Meta)
	}
	p.Node = ""
}

// snapDust zeroes float residue left by repeated add/sub cycles; real
// allocations are never below a millicore or a kilobyte, so anything
// under 1e-3 is arithmetic dust.
func snapDust(v resource.Vector) resource.Vector {
	for i := range v {
		if v[i] < 1e-3 {
			v[i] = 0
		}
	}
	return v
}

// deletePod removes a pod entirely.
func (c *Cluster) deletePod(p *PodObject) {
	c.release(p)
	c.indexRemovePod(p)
	delete(c.pods, p.Name)
	c.traceLifecycle(obs.VerbDeleted, &p.Meta)
}

// evict returns a running pod to the pending queue (service replica) or
// fails it (task); used by preemption and node failure.
func (c *Cluster) evict(p *PodObject, reason string) {
	node := p.Node // release clears it; spans attribute the lost segment
	c.release(p)
	if p.IsTask() {
		p.Phase = Failed
		c.update(&p.Meta)
		done := p.Task.OnDone
		name := p.Name
		c.indexRemovePod(p)
		delete(c.pods, p.Name)
		c.traceLifecycle(obs.VerbDeleted, &p.Meta)
		c.met.Counter("evictions/" + reason).Inc()
		c.recordEvent(kindTaskKilled, name, msgTaskFailed, eventArgs{s: [2]string{reason}})
		if c.tracer.Enabled() {
			c.tracer.Record(obs.Event{
				At: c.now(), Kind: obs.KindSched, Verb: obs.VerbEvict,
				App: p.App, Object: name, Detail: reason,
			})
			c.emitSegmentSpan(p, node, reason)
		}
		if done != nil {
			done(name, true)
		}
		return
	}
	p.Phase = Pending
	p.Usage = resource.Vector{}
	p.pendingSince = c.now() // next bind measures the re-queue wait
	c.indexMarkPending(p)
	c.met.Counter("evictions/" + reason).Inc()
	c.recordEvent(kindPodEvicted, p.Name, msgRequeued, eventArgs{s: [2]string{reason}})
	if c.tracer.Enabled() {
		c.tracer.Record(obs.Event{
			At: c.now(), Kind: obs.KindSched, Verb: obs.VerbEvict,
			App: p.App, Object: p.Name, Detail: reason,
		})
		c.emitSegmentSpan(p, node, reason)
	}
	c.update(&p.Meta)
}

// schedulePending attempts placement of every pending pod; pods that do
// not fit stay pending (retried next tick). High-priority pods may
// preempt strictly lower-priority ones when no node fits.
//
// The loop iterates a copy of the pending queue (preemption evictions
// insert into the live one) against the reusable scheduler snapshot:
// built once per round and patched after each bind, instead of
// re-deriving every node's pod list per pod.
func (c *Cluster) schedulePending() {
	if len(c.pending) == 0 {
		return
	}
	var t0 time.Time
	if c.phases != nil {
		t0 = time.Now()
	}
	c.scratchQueue = append(c.scratchQueue[:0], c.pending...)
	c.drain(c.scratchQueue)
	if c.phases != nil {
		c.phases.Add(perf.PhaseSchedDrain, time.Since(t0).Nanoseconds())
	}
}

// drain places the queued pods in order. Binds leave their entries in
// c.pending instead of paying a memmove each (indexBind), so the round
// ends with one order-preserving pass over the queue.
func (c *Cluster) drain(queue []*PodObject) {
	c.refreshSnapshot()
	c.draining = true
	for _, p := range queue {
		c.schedOne(p)
	}
	c.draining = false
	c.compactPending()
}

// compactPending keeps the pods still Pending, in order, and drops
// adjacent duplicates: a pod bound earlier in the round and then
// preempted is re-queued next to its own stale entry.
func (c *Cluster) compactPending() {
	kept := c.pending[:0]
	for _, p := range c.pending {
		if p.Phase == Pending && (len(kept) == 0 || kept[len(kept)-1] != p) {
			kept = append(kept, p)
		}
	}
	clear(c.pending[len(kept):])
	c.pending = kept
}

// schedOne is the per-pod placement step of the drain: schedule,
// bind, patch the snapshot; absorb bind faults; on rejection count it,
// trace it, and try priority preemption.
func (c *Cluster) schedOne(p *PodObject) {
	info := sched.PodInfo{Name: p.Name, App: p.App, Requests: p.Requests, Priority: p.Priority, NodeSelector: p.NodeSelector}
	nodeName, err := c.sch.ScheduleOn(info, c.snap)
	if err == nil {
		if berr := c.bind(p, nodeName); berr != nil {
			// The node vanished between the placement decision and the
			// bind (mid-round failure). Absorb the fault, rebuild the
			// snapshot without the dead node, and leave the pod pending.
			c.bindFault(p, nodeName, berr)
			c.refreshSnapshot()
			return
		}
		c.snap.Commit(nodeName, info)
		return
	}
	c.met.Counter("sched/unschedulable").Inc()
	if c.tracer.Enabled() {
		// Rejections are rare (the pod stays pending) so the error
		// formatting stays off the steady-state path.
		c.tracer.Record(obs.Event{
			At: c.now(), Kind: obs.KindSched, Verb: obs.VerbReject,
			App: p.App, Object: p.Name, Detail: err.Error(), Alloc: p.Requests,
		})
	}
	if p.Priority <= 0 {
		return
	}
	if plan := c.sch.Preempt(info, c.snap.Nodes()); plan != nil {
		for _, victim := range plan.Victims {
			if vp, ok := c.pods[victim]; ok {
				c.evict(vp, "preempted")
			}
		}
		c.met.Counter("sched/preemptions").Inc()
		c.recordEvent(kindPreemption, p.Name, msgPreempted, eventArgs{list: plan.Victims, s: [2]string{plan.Node}})
		if c.tracer.Enabled() {
			c.tracer.Record(obs.Event{
				At: c.now(), Kind: obs.KindSched, Verb: obs.VerbPreempt,
				App: p.App, Object: p.Name, Node: plan.Node,
				Detail: fmt.Sprintf("victims %v", plan.Victims),
			})
		}
		if berr := c.bind(p, plan.Node); berr != nil {
			c.bindFault(p, plan.Node, berr)
		}
		// Evictions touched several nodes; rebuild rather than patch.
		c.refreshSnapshot()
	}
}

// refreshSnapshot reloads the reusable scheduling snapshot from the
// incremental indexes: O(nodes + bound pods), no steady-state
// allocation. Binds patch the snapshot incrementally via Commit; only
// multi-node changes (preemption evictions, mid-round bind faults) pay
// for a reload.
func (c *Cluster) refreshSnapshot() {
	c.snap.Reset()
	for _, n := range c.nodeList {
		if !n.Ready {
			continue
		}
		c.snap.AddNode(sched.NodeInfo{
			Name:        n.Name,
			Allocatable: n.Allocatable,
			Allocated:   n.Allocated,
			Labels:      n.Meta.Labels,
		})
		for _, p := range c.byNode[n.Name] {
			c.snap.AddPod(sched.PodInfo{Name: p.Name, App: p.App, Requests: p.Requests, Priority: p.Priority})
		}
	}
}

// FailNode marks a node unready and evicts its pods; service replicas
// return to the pending queue, tasks fail.
func (c *Cluster) FailNode(name string) error {
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("cluster: unknown node %s", name)
	}
	if !n.Ready {
		return nil
	}
	n.Ready = false
	// Copy the index slice: each evict mutates byNode[name] underneath.
	for _, p := range append([]*PodObject(nil), c.byNode[name]...) {
		c.evict(p, "node-failure")
	}
	n.Allocated = resource.Vector{}
	n.Usage = resource.Vector{}
	c.hot.slow[n.slot] = c.nodeSlowdown(n)
	// Drain the node from the reusable scheduling snapshot in place: the
	// entry keeps its name (error totals stay stable) but loses all
	// capacity and is never offered again, so nothing schedules onto it
	// this round. Without this a failure landing mid-round could
	// re-bind the just-evicted pods onto the dead node via the stale
	// snapshot.
	c.snap.Fail(name)
	c.update(&n.Meta)
	c.met.Counter("nodes/failures").Inc()
	c.recordEvent(kindNodeFailed, name, msgNodeFailed, eventArgs{})
	if c.tracer.Enabled() {
		c.tracer.Record(obs.Event{At: c.now(), Kind: obs.KindSched, Verb: obs.VerbNodeFailed, Node: name})
	}
	return nil
}

// RestoreNode brings a failed node back.
func (c *Cluster) RestoreNode(name string) error {
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("cluster: unknown node %s", name)
	}
	if n.Ready {
		return nil
	}
	n.Ready = true
	c.hot.slow[n.slot] = c.nodeSlowdown(n)
	c.update(&n.Meta)
	c.recordEvent(kindNodeRestored, name, msgNodeRestored, eventArgs{})
	if c.tracer.Enabled() {
		c.tracer.Record(obs.Event{At: c.now(), Kind: obs.KindSched, Verb: obs.VerbNodeRestored, Node: name})
	}
	return nil
}

// create stamps a new object's first version and records its creation
// on an enabled tracer. The caller has checked that the name is free.
func (c *Cluster) create(m *Meta) {
	c.update(m)
	c.traceLifecycle(obs.VerbAdded, m)
}

// update stamps a mutated object with the next version.
func (c *Cluster) update(m *Meta) {
	c.version++
	m.ResourceVersion = c.version
}

func (c *Cluster) nextPodName(prefix string) string {
	c.podSeq++
	return podName(prefix, c.podSeq)
}

// podName is the name of the replica created at pod sequence number seq.
func podName(prefix string, seq uint64) string {
	return fmt.Sprintf("%s-%d", prefix, seq)
}
