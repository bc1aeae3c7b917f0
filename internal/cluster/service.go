package cluster

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"evolve/internal/chaos"
	"evolve/internal/control"
	"evolve/internal/obs"
	"evolve/internal/plo"
	"evolve/internal/resource"
)

// CreateService deploys a replicated service. Its replicas start pending
// and are placed on the next tick (or immediately via SchedulePendingNow).
func (c *Cluster) CreateService(spec ServiceSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if _, ok := c.apps[spec.Name]; ok {
		return fmt.Errorf("cluster: service %s already exists", spec.Name)
	}
	obj := &AppObject{
		Meta:            Meta{Kind: KindApp, Name: spec.Name},
		Spec:            spec,
		DesiredReplicas: spec.InitialReplicas,
		Alloc:           spec.InitialAlloc,
	}
	c.create(&obj.Meta)
	st := c.newAppState(obj)
	c.apps[spec.Name] = st
	c.indexAddApp(st)
	for i := 0; i < spec.InitialReplicas; i++ {
		c.addReplica(st)
	}
	return nil
}

// newAppState builds the bookkeeping for a created service, including
// its per-app random streams. The streams are keyed by app name, so a
// service observes the same noise and fault draws no matter how many
// other services exist or which shard it lands on.
func (c *Cluster) newAppState(obj *AppObject) *appState {
	name := obj.Spec.Name
	return &appState{
		obj:      obj,
		tracker:  plo.NewTracker(obj.Spec.PLO),
		loadFn:   func(time.Duration) float64 { return 0 },
		noise:    c.prng.Stream("noise/" + name),
		chaosRNG: c.prng.Stream("chaos/" + name),
	}
}

// SetLoadFunc installs the offered-load function (ops/second over virtual
// time) for a service.
func (c *Cluster) SetLoadFunc(app string, fn func(now time.Duration) float64) error {
	st, ok := c.apps[app]
	if !ok {
		return fmt.Errorf("cluster: unknown service %s", app)
	}
	if fn == nil {
		return fmt.Errorf("cluster: nil load function for %s", app)
	}
	st.loadFn = fn
	return nil
}

// Apps returns the names of all services, sorted, in a fresh slice.
func (c *Cluster) Apps() []string { return slices.Clone(c.AppNames()) }

// AppNames returns the names of all services, sorted, in the slice the
// cluster keeps: callers must not modify it. Services are never removed,
// so the list is rebuilt, into a new slice, only after one was added;
// the control loop walks it every period without allocating.
func (c *Cluster) AppNames() []string {
	if len(c.appNames) != len(c.appList) {
		names := make([]string, len(c.appList))
		for i, st := range c.appList {
			names[i] = st.obj.Spec.Name
		}
		c.appNames = names
	}
	return c.appNames
}

// App returns the object for a service.
func (c *Cluster) App(name string) (*AppObject, error) {
	st, ok := c.apps[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown service %s", name)
	}
	return st.obj, nil
}

func (c *Cluster) addReplica(st *appState) *PodObject {
	spec := st.obj.Spec
	p := &PodObject{
		Meta:         Meta{Kind: KindPod, Name: c.nextPodName(spec.Name)},
		App:          spec.Name,
		Phase:        Pending,
		Requests:     st.obj.Alloc,
		Priority:     spec.Priority,
		NodeSelector: spec.NodeSelector,
		CreatedAt:    c.now(),
		pendingSince: c.now(),
		// Causal link to the decision being applied, if any: addReplica is
		// only reached from initial deployment (no cause) or from inside
		// applyDecision/migrateWorstReplica (cause freshly stamped).
		causeAt:   st.decisionAt,
		causeSpan: st.decisionSpan,
	}
	if _, taken := c.pods[p.Name]; taken {
		// A task pod already holds the generated name (task names are
		// the caller's, replica names come from podSeq). Absorb the
		// failed create (the replica simply does not come up this
		// round) rather than crashing the control plane; the next
		// decision retries. Callers tolerate the nil.
		c.registryFault(&p.Meta, fmt.Errorf("registry: already exists: %s/%s", p.Kind, p.Name))
		return nil
	}
	c.create(&p.Meta)
	c.pods[p.Name] = p
	c.indexAddPod(p)
	return p
}

// appPods returns the live pods of a service, newest last. The result is
// a copy of the byApp index, safe to hold across mutations; the tick
// reads the index directly instead.
func (c *Cluster) appPods(app string) []*PodObject {
	return append([]*PodObject(nil), c.byApp[app]...)
}

// ApplyDecision actuates a controller decision: horizontal scale to
// d.Replicas and vertical resize of every replica towards d.Alloc.
// Vertical grants are limited by node headroom; a replica that stays
// badly throttled is migrated (delete + recreate pending) so the
// scheduler can find it a roomier node.
func (c *Cluster) ApplyDecision(app string, d control.Decision) error {
	st, ok := c.apps[app]
	if !ok {
		return fmt.Errorf("cluster: unknown service %s", app)
	}
	if c.chaos != nil {
		if v := c.chaos.Actuation(app, c.now()); v != (chaos.ActVerdict{}) {
			return c.chaoticApply(st, d, v)
		}
	}
	return c.applyDecision(st, d)
}

// BeginActuationBatch implements control.BatchActuator: the control
// loop brackets its serial apply walk with Begin/End so per-decision
// work that is invariant for the whole step event can be computed once.
// Today that is the largest-ready-node allocatable cap — O(nodes) per
// decision serially, O(nodes) per control period batched. Topology and
// readiness cannot change inside one engine event, so the cached value
// is bit-exact; chaos-delayed applies and loop retries fire outside the
// window and recompute against the live world.
func (c *Cluster) BeginActuationBatch() {
	c.ctrlBatch = true
	c.ctrlBiggest, c.ctrlBiggestOK = c.largestNodeAllocatable()
}

// EndActuationBatch closes the window opened by BeginActuationBatch.
func (c *Cluster) EndActuationBatch() { c.ctrlBatch = false }

// chaoticApply carries out an actuation under an injected fault verdict:
// reject it (transient error, the loop retries), delay it, or apply only
// a fraction of the decision's delta.
func (c *Cluster) chaoticApply(st *appState, d control.Decision, v chaos.ActVerdict) error {
	app := st.obj.Spec.Name
	switch {
	case v.Reject:
		c.met.Counter("chaos/act-rejected").Inc()
		c.recordEvent(kindChaosInject, app, msgActRejected, eventArgs{})
		if c.tracer.Enabled() {
			c.tracer.Record(obs.Event{
				At: c.now(), Kind: obs.KindFault, Verb: obs.VerbInject, App: app,
				Detail: "actuation rejected", NewReplicas: d.Replicas, NewAlloc: d.Alloc,
			})
		}
		return chaos.Rejected("ApplyDecision", app)
	case v.Delay > 0:
		c.met.Counter("chaos/act-delayed").Inc()
		c.recordEvent(kindChaosInject, app, msgActDelayed, eventArgs{dur: v.Delay})
		if c.tracer.Enabled() {
			c.tracer.Record(obs.Event{
				At: c.now(), Kind: obs.KindFault, Verb: obs.VerbInject, App: app,
				Detail:      fmt.Sprintf("actuation delayed by %v", v.Delay),
				NewReplicas: d.Replicas, NewAlloc: d.Alloc,
			})
		}
		key := strconv.FormatUint(c.delaySeq, 10)
		c.delaySeq++
		c.pendingApply[key] = delayedApply{app: app, d: d}
		c.eng.TagNext("act-delay", key)
		c.eng.After(v.Delay, func() {
			delete(c.pendingApply, key)
			_ = c.applyDecision(st, d)
		})
		return nil
	default: // partial
		frac := v.Partial
		cur := control.Decision{Replicas: st.obj.DesiredReplicas, Alloc: st.obj.Alloc}
		d.Replicas = cur.Replicas + int(math.Round(float64(d.Replicas-cur.Replicas)*frac))
		d.Alloc = cur.Alloc.Add(d.Alloc.Sub(cur.Alloc).Scale(frac))
		c.met.Counter("chaos/act-partial").Inc()
		c.recordEvent(kindChaosInject, app, msgActPartial, eventArgs{x: frac * 100})
		if c.tracer.Enabled() {
			c.tracer.Record(obs.Event{
				At: c.now(), Kind: obs.KindFault, Verb: obs.VerbInject, App: app,
				Detail:      fmt.Sprintf("actuation applied at %.0f%%", frac*100),
				NewReplicas: d.Replicas, NewAlloc: d.Alloc,
			})
		}
		return c.applyDecision(st, d)
	}
}

// applyDecision is the fault-free actuation body.
func (c *Cluster) applyDecision(st *appState, d control.Decision) error {
	app := st.obj.Spec.Name
	if d.Replicas < 1 {
		d.Replicas = 1
	}
	if !d.Alloc.NonNegative() || d.Alloc.IsZero() {
		return fmt.Errorf("cluster: invalid allocation %v for %s", d.Alloc, app)
	}
	// A per-replica allocation larger than the biggest ready node can
	// host would create permanently unschedulable pods; clamp it, the
	// way an admission LimitRange would. Inside an actuation batch the
	// cap was computed once for the whole control period.
	biggest, ok := c.ctrlBiggest, c.ctrlBiggestOK
	if !c.ctrlBatch {
		biggest, ok = c.largestNodeAllocatable()
	}
	if ok {
		capped := d.Alloc.Min(biggest)
		if capped != d.Alloc {
			c.met.Counter("resize/node-capped").Inc()
			if c.tracer.Enabled() {
				c.tracer.Record(obs.Event{
					At: c.now(), Kind: obs.KindSched, Verb: obs.VerbCap,
					App: app, Alloc: d.Alloc, NewAlloc: capped,
					Detail: "per-replica allocation capped to largest node",
				})
			}
			d.Alloc = capped
		}
	}
	// Stamp the causal anchor before any pods are created: replicas added
	// below inherit this instant (and span) so the decision→effect lag —
	// decision applied to first caused bind — is measurable, traced or not.
	st.decisionAt = c.now()
	if c.tracer.Enabled() {
		st.decisionSpan = c.tracer.RecordSpan(obs.Span{
			Kind: obs.SpanDecision, App: app, Object: app,
			Detail: fmt.Sprintf("replicas=%d", d.Replicas),
			Shard:  c.appShard(app), Start: c.now(), End: c.now(),
		})
	} else {
		st.decisionSpan = 0
	}
	st.obj.DesiredReplicas = d.Replicas
	st.obj.Alloc = d.Alloc
	c.update(&st.obj.Meta)

	// Horizontal: add or remove replicas (newest first on the way down).
	// Only these change the byApp index, so only they need a copy of it;
	// a decision that keeps the replica count walks the index in place.
	pods := c.byApp[app]
	if len(pods) != d.Replicas {
		pods = c.appPods(app)
		for len(pods) < d.Replicas {
			p := c.addReplica(st)
			if p == nil {
				break // create absorbed as a registry fault; retried next period
			}
			pods = append(pods, p)
		}
		for len(pods) > d.Replicas {
			last := pods[len(pods)-1]
			c.deletePod(last)
			c.met.Counter("scale/down-deletes").Inc()
			pods = pods[:len(pods)-1]
		}
	}

	// Vertical: in-place resize where headroom allows. A replica already
	// at the desired allocation is left untouched: with Free() >= 0 on
	// every dimension the grant would be exactly the current requests, so
	// the resize is a no-op — skipping it avoids re-deriving the node's
	// Allocated sum (and its float dust) plus two version stamps per
	// steady-state replica per period. A bound replica's node always
	// exists: nodes are never removed, and restore refuses a pod bound
	// to a node the world lacks.
	throttled := false
	for _, p := range pods {
		if p.Requests == d.Alloc {
			continue
		}
		if p.Phase == Pending {
			p.Requests = d.Alloc
			c.update(&p.Meta)
			continue
		}
		if !c.resizeInPlace(p, d.Alloc) {
			throttled = true
		}
	}
	if throttled {
		st.migrateDebt++
		c.met.Counter("resize/throttled").Inc()
	} else {
		st.migrateDebt = 0
	}
	// Persistent throttling: migrate the most-throttled replica.
	if st.migrateDebt >= 2 {
		c.migrateWorstReplica(st, d.Alloc)
		st.migrateDebt = 0
	}
	return nil
}

// resizeInPlace grants as much of the desired allocation as the node's
// headroom allows. Returns true when fully granted on all dimensions.
func (c *Cluster) resizeInPlace(p *PodObject, desired resource.Vector) bool {
	n, ok := c.nodes[p.Node]
	if !ok {
		return false
	}
	headroom := n.Free().Add(p.Requests) // room available to this pod
	granted := desired.Min(headroom)
	// Never shrink below what the pod already uses minus a safety margin
	// is the controller's job; the substrate just applies the grant.
	n.Allocated = snapDust(n.Allocated.Sub(p.Requests).Add(granted).ClampMin(0))
	p.Requests = granted
	c.hotDirtyApp(p.App)
	c.update(&p.Meta)
	c.update(&n.Meta)
	full := true
	for _, k := range resource.Kinds() {
		if granted[k] < desired[k]*0.999 {
			full = false
		}
	}
	return full
}

// migrateWorstReplica deletes the replica whose grant is furthest from
// desired and recreates it pending, letting the scheduler relocate it.
func (c *Cluster) migrateWorstReplica(st *appState, desired resource.Vector) {
	pods := c.appPods(st.obj.Name)
	var worst *PodObject
	worstGap := 0.0
	for _, p := range pods {
		if p.Phase != Running {
			continue
		}
		gap, _ := desired.Sub(p.Requests).ClampMin(0).DominantShare(desired.ClampMin(1))
		if gap > worstGap {
			worst, worstGap = p, gap
		}
	}
	if worst == nil || worstGap < 0.05 {
		return
	}
	fromNode := worst.Node
	if c.tracer.Enabled() {
		c.emitSegmentSpan(worst, fromNode, "migrated")
	}
	c.deletePod(worst)
	c.addReplica(st)
	c.met.Counter("resize/migrations").Inc()
	c.recordEvent(kindPodMigrated, worst.Name, msgMigrated, eventArgs{s: [2]string{st.obj.Name}})
	if c.tracer.Enabled() {
		c.tracer.Record(obs.Event{
			At: c.now(), Kind: obs.KindSched, Verb: obs.VerbMigrate,
			App: st.obj.Name, Object: worst.Name, Node: fromNode,
			Detail: "persistently throttled resize; re-queued for a roomier node",
		})
	}
}

// SchedulePendingNow runs one placement round outside the tick; tests and
// setup code use it to avoid waiting a metrics interval.
func (c *Cluster) SchedulePendingNow() { c.schedulePending() }

// Observe aggregates the service's telemetry since the previous Observe
// call into a controller observation.
func (c *Cluster) Observe(app string) (control.Observation, error) {
	st, ok := c.apps[app]
	if !ok {
		return control.Observation{}, fmt.Errorf("cluster: unknown service %s", app)
	}
	now := c.now()
	spec := st.obj.Spec
	obs := control.Observation{
		App:           app,
		Now:           now,
		Interval:      now - st.lastObserve,
		PLO:           spec.PLO,
		Replicas:      st.obj.DesiredReplicas,
		ReadyReplicas: c.runCache(st, now).ready,
		Alloc:         st.obj.Alloc,
		Limits: control.Limits{
			MinAlloc:    spec.MinAlloc,
			MaxAlloc:    orVector(spec.MaxAlloc, st.obj.Alloc.Scale(1000)),
			MinReplicas: 1,
			MaxReplicas: spec.MaxReplicas,
		},
	}
	sum, n := st.winSum, st.winSamples
	obs.SLI = meanOf(sum.sli, n)
	obs.MeanLatency = meanOf(sum.mean, n)
	obs.P99Latency = meanOf(sum.p99, n)
	obs.Throughput = meanOf(sum.tput, n)
	obs.OfferedLoad = meanOf(sum.offered, n)
	obs.Usage = meanVec(sum.usage, n)
	obs.Utilisation = meanVec(sum.util, n)
	obs.Saturated = st.winSaturated
	obs.Samples = n
	obs.ExpectedSamples = st.winTicks
	obs.StaleSamples = st.winStale

	st.winTicks = 0
	st.winStale = 0
	st.winSum, st.winSamples = sensedSample{}, 0
	st.winSaturated = false
	st.lastObserve = now
	return obs, nil
}

// Tracker returns the PLO violation tracker for a service.
func (c *Cluster) Tracker(app string) (*plo.Tracker, error) {
	st, ok := c.apps[app]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown service %s", app)
	}
	return st.tracker, nil
}

// meanOf and meanVec turn a running sum of n samples into their mean (0
// when n is 0).
func meanOf(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func meanVec(sum resource.Vector, n int) resource.Vector {
	if n == 0 {
		return resource.Vector{}
	}
	return sum.Scale(1 / float64(n))
}

func orVector(v, fallback resource.Vector) resource.Vector {
	if v.IsZero() {
		return fallback
	}
	return v
}
