package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/control"
	"evolve/internal/resource"
)

// Checkpoint layer for the cluster substrate. CkptSave serialises the
// full mutable world — nodes, apps, pods, per-app sensor sums and random
// stream positions, the event journal, tick fault counters and the
// metrics registry — at a tick barrier. CkptLoad patches a freshly
// constructed world (same topology, same specs) back to that state:
// node and app objects are patched in place (they are the very pointers
// the cluster's indexes and metric handles hold), while the pod set is
// replaced wholesale, because pods are born and die at runtime and the
// fresh world's initial replicas are not the checkpoint's pods.
//
// Everything derivable is deliberately not serialised: the sorted
// indexes are rebuilt by insertion, the scheduler snapshot and the
// dense run/pod caches rebuild lazily on the next tick, node slowdowns
// are recomputed from the restored usage, and the dense per-app usage
// from the last usage sample each app recorded. The one non-derivable
// cache field is rc.contrib — evalApp reads it when an app's ready
// count drops to zero, and the lazy rebuild does not set it — so it
// rides along per app.

// delayedApply is one chaos-delayed decision still waiting for its
// timer; the checkpoint records it so restore can rebuild the timer's
// closure (see RebuildTimer).
type delayedApply struct {
	app string
	d   control.Decision
}

// taskTimerArg is the TimerTag argument of a task completion timer. The
// bind time disambiguates restarted tasks: a re-submitted pod with the
// same name arms a new timer under a new tag.
func taskTimerArg(name string, boundAt time.Duration) string {
	return name + "@" + strconv.FormatInt(int64(boundAt), 10)
}

// taskCompletionFn is the completion callback armTaskCompletion
// schedules; RebuildTimer re-creates the identical closure on restore.
func (c *Cluster) taskCompletionFn(name string, boundAt time.Duration) func() {
	return func() {
		cur, ok := c.pods[name]
		if !ok || cur.Phase != Running || cur.BoundAt != boundAt {
			return // pod was evicted/restarted meanwhile
		}
		c.completeTask(cur)
	}
}

// RebuildTimer reconstructs the callback of a checkpointed cluster
// timer that the freshly constructed world did not re-arm: task
// completions and chaos-delayed actuations. Both rebuild from state
// CkptLoad restored, so the world restorer must load the cluster before
// restoring timers.
func (c *Cluster) RebuildTimer(kind, arg string) (func(), error) {
	switch kind {
	case "task":
		i := strings.LastIndex(arg, "@")
		if i < 0 {
			return nil, fmt.Errorf("cluster: malformed task timer arg %q", arg)
		}
		boundAt, err := strconv.ParseInt(arg[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: malformed task timer arg %q: %v", arg, err)
		}
		return c.taskCompletionFn(arg[:i], time.Duration(boundAt)), nil
	case "act-delay":
		pa, ok := c.pendingApply[arg]
		if !ok {
			return nil, fmt.Errorf("cluster: delayed apply %q not in checkpoint", arg)
		}
		st, ok := c.apps[pa.app]
		if !ok {
			return nil, fmt.Errorf("cluster: delayed apply %q references unknown service %s", arg, pa.app)
		}
		key, d := arg, pa.d
		return func() {
			delete(c.pendingApply, key)
			_ = c.applyDecision(st, d)
		}, nil
	}
	return nil, fmt.Errorf("cluster: no rebuilder for timer kind %q", kind)
}

func (s *sensedSample) ckptSave(w *ckpt.Writer) {
	w.F64(s.sli)
	w.F64(s.mean)
	w.F64(s.p99)
	w.F64(s.tput)
	w.F64(s.offered)
	s.usage.CkptSave(w)
	s.util.CkptSave(w)
}

func loadSensed(r *ckpt.Reader) sensedSample {
	return sensedSample{
		sli: r.F64(), mean: r.F64(), p99: r.F64(), tput: r.F64(), offered: r.F64(),
		usage: resource.LoadVector(r), util: resource.LoadVector(r),
	}
}

func saveSelector(w *ckpt.Writer, sel map[string]string) {
	keys := make([]string, 0, len(sel))
	for k := range sel {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.Str(k)
		w.Str(sel[k])
	}
}

func loadSelector(r *ckpt.Reader) (map[string]string, error) {
	n := r.Count(8)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n == 0 {
		return nil, nil
	}
	sel := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.Str()
		sel[k] = r.Str()
	}
	return sel, r.Err()
}

func savePod(w *ckpt.Writer, p *PodObject) {
	w.Str(p.Name)
	w.U64(p.Meta.ResourceVersion)
	w.Str(p.App)
	w.Str(p.Node)
	w.Int(int(p.Phase))
	p.Requests.CkptSave(w)
	w.Int(p.Priority)
	p.Usage.CkptSave(w)
	saveSelector(w, p.NodeSelector)
	w.Bool(p.Task != nil)
	if p.Task != nil {
		t := p.Task
		w.Str(t.Name)
		w.Str(t.Job)
		t.Model.Work.CkptSave(w)
		w.F64(t.Model.MemSet)
		t.Requests.CkptSave(w)
		w.Int(t.Priority)
		saveSelector(w, t.NodeSelector)
	}
	w.Dur(p.CreatedAt)
	w.Dur(p.BoundAt)
	w.Dur(p.ReadyAt)
	w.Dur(p.FinishAt)
	w.Dur(p.pendingSince)
	w.Dur(p.causeAt)
	w.Bool(p.everBound)
	w.U64(p.spanID)
	w.U64(p.causeSpan)
}

func loadPod(r *ckpt.Reader) (*PodObject, error) {
	p := &PodObject{}
	p.Meta.Kind = KindPod
	p.Meta.Name = r.Str()
	p.Meta.ResourceVersion = r.U64()
	p.App = r.Str()
	p.Node = r.Str()
	p.Phase = Phase(r.Int())
	p.Requests = resource.LoadVector(r)
	p.Priority = r.Int()
	p.Usage = resource.LoadVector(r)
	sel, err := loadSelector(r)
	if err != nil {
		return nil, err
	}
	p.NodeSelector = sel
	if r.Bool() {
		t := &TaskSpec{}
		t.Name = r.Str()
		t.Job = r.Str()
		t.Model.Work = resource.LoadVector(r)
		t.Model.MemSet = r.F64()
		t.Requests = resource.LoadVector(r)
		t.Priority = r.Int()
		if t.NodeSelector, err = loadSelector(r); err != nil {
			return nil, err
		}
		p.Task = t
	}
	p.CreatedAt = r.Dur()
	p.BoundAt = r.Dur()
	p.ReadyAt = r.Dur()
	p.FinishAt = r.Dur()
	p.pendingSince = r.Dur()
	p.causeAt = r.Dur()
	p.everBound = r.Bool()
	p.spanID = r.U64()
	p.causeSpan = r.U64()
	return p, r.Err()
}

func (c *Cluster) saveAppState(w *ckpt.Writer, st *appState) {
	w.Str(st.obj.Spec.Name)
	w.U64(st.obj.Meta.ResourceVersion)
	w.Int(st.obj.DesiredReplicas)
	st.obj.Alloc.CkptSave(w)
	st.tracker.CkptSave(w)
	st.winSum.ckptSave(w)
	w.Int(st.winSamples)
	w.Bool(st.winSaturated)
	w.Int(st.winTicks)
	w.Int(st.winStale)
	w.Bool(st.haveSensed)
	st.sensed.ckptSave(w)
	w.Dur(st.lastObserve)
	w.Int(st.migrateDebt)
	w.Bool(st.wasViolated)
	w.Dur(st.decisionAt)
	w.U64(st.decisionSpan)
	w.U64(st.noise.Draws())
	w.U64(st.chaosRNG.Draws())
	w.Int(st.rc.contrib)
}

func (c *Cluster) loadAppState(r *ckpt.Reader, st *appState) error {
	name := r.Str()
	if r.Err() != nil {
		return r.Err()
	}
	if name != st.obj.Spec.Name {
		return fmt.Errorf("cluster: ckpt: service %q, fresh world has %q (topology drift)", name, st.obj.Spec.Name)
	}
	st.obj.Meta.ResourceVersion = r.U64()
	st.obj.DesiredReplicas = r.Int()
	st.obj.Alloc = resource.LoadVector(r)
	if err := st.tracker.CkptLoad(r); err != nil {
		return err
	}
	st.winSum = loadSensed(r)
	st.winSamples = r.Int()
	st.winSaturated = r.Bool()
	st.winTicks = r.Int()
	st.winStale = r.Int()
	st.haveSensed = r.Bool()
	st.sensed = loadSensed(r)
	st.lastObserve = r.Dur()
	st.migrateDebt = r.Int()
	st.wasViolated = r.Bool()
	st.decisionAt = r.Dur()
	st.decisionSpan = r.U64()
	noise, chaos := r.U64(), r.U64()
	st.rc.contrib = r.Int()
	st.rc.ok = false
	if r.Err() != nil {
		return r.Err()
	}
	if err := st.noise.Burn(noise); err != nil {
		return err
	}
	return st.chaosRNG.Burn(chaos)
}

// CkptSave serialises the cluster's full mutable state. Must be called
// at a tick barrier (no tick in progress); the facade's checkpoint
// timer guarantees that.
func (c *Cluster) CkptSave(w *ckpt.Writer) {
	c.syncPodUsage()
	w.Begin("cluster")
	w.U64(c.podSeq)
	w.U64(c.delaySeq)

	keys := make([]string, 0, len(c.pendingApply))
	for k := range c.pendingApply {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Int(len(keys))
	for _, k := range keys {
		pa := c.pendingApply[k]
		w.Str(k)
		w.Str(pa.app)
		w.Int(pa.d.Replicas)
		pa.d.Alloc.CkptSave(w)
	}

	w.Int(len(c.nodeList))
	for _, n := range c.nodeList {
		w.Str(n.Name)
		w.U64(n.Meta.ResourceVersion)
		w.Bool(n.Ready)
		n.Allocated.CkptSave(w)
		n.Usage.CkptSave(w)
	}

	w.Int(len(c.appList))
	for _, st := range c.appList {
		c.saveAppState(w, st)
	}

	w.Int(len(c.byName))
	for _, p := range c.byName {
		savePod(w, p)
	}

	w.U64(c.events.dropped)
	w.Int(c.events.ring.Len())
	c.events.ring.Ref(w)

	w.Dur(c.lastTick.At)
	w.Int(c.lastTick.RegistryFaults)
	w.Int(c.lastTick.BindFailures)
	w.Int(c.lastTick.SamplesDropped)
	w.Int(c.lastTick.SamplesStale)

	w.Dur(c.hot.lastPhaseAt)

	c.met.CkptSave(w)
	w.U64(c.version)
}

// CkptLoad restores state written by CkptSave into a freshly
// constructed cluster with identical configuration and topology (same
// nodes, same services; the initial replicas the fresh construction
// created are discarded and the checkpoint's pod set injected).
// reattach supplies the completion callback for restored task pods —
// the world restorer routes each pod to its owning batch runner or HPC
// queue. A nil reattach leaves task callbacks unset (tests only).
func (c *Cluster) CkptLoad(r *ckpt.Reader, reattach func(p *PodObject) (func(string, bool), error)) error {
	r.Begin("cluster")
	c.podSeq = r.U64()
	c.delaySeq = r.U64()

	npa := r.Count(8)
	if r.Err() != nil {
		return r.Err()
	}
	c.pendingApply = make(map[string]delayedApply, npa)
	for i := 0; i < npa; i++ {
		k := r.Str()
		app := r.Str()
		d := control.Decision{Replicas: r.Int(), Alloc: resource.LoadVector(r)}
		c.pendingApply[k] = delayedApply{app: app, d: d}
	}

	// Drop the fresh world's pods before patching nodes: releasing a
	// bound pod rewinds its node's Allocated, which the checkpoint
	// values below then overwrite. Nothing is traced: the checkpointed
	// version counter is restored at the end, and the tracer rings with
	// it.
	for _, p := range append([]*PodObject(nil), c.byName...) {
		c.release(p)
		c.indexRemovePod(p)
		delete(c.pods, p.Name)
	}

	nn := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if nn != len(c.nodeList) {
		return fmt.Errorf("cluster: ckpt: checkpoint has %d nodes, this world %d (topology drift)", nn, len(c.nodeList))
	}
	for i := 0; i < nn; i++ {
		name := r.Str()
		if r.Err() != nil {
			return r.Err()
		}
		n := c.nodeList[i]
		if n.Name != name {
			return fmt.Errorf("cluster: ckpt: node %q, fresh world has %q (topology drift)", name, n.Name)
		}
		n.Meta.ResourceVersion = r.U64()
		n.Ready = r.Bool()
		n.Allocated = resource.LoadVector(r)
		n.Usage = resource.LoadVector(r)
		n.pc.ok = false
		c.hot.slow[n.slot] = c.nodeSlowdown(n)
	}

	na := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if na != len(c.appList) {
		return fmt.Errorf("cluster: ckpt: checkpoint has %d services, this world %d (topology drift)", na, len(c.appList))
	}
	for i := 0; i < na; i++ {
		if err := c.loadAppState(r, c.appList[i]); err != nil {
			return err
		}
	}

	np := r.Count(8)
	if r.Err() != nil {
		return r.Err()
	}
	for i := 0; i < np; i++ {
		p, err := loadPod(r)
		if err != nil {
			return err
		}
		if p.Task != nil && reattach != nil {
			fn, err := reattach(p)
			if err != nil {
				return err
			}
			p.Task.OnDone = fn
		}
		if _, dup := c.pods[p.Name]; dup {
			return fmt.Errorf("cluster: ckpt: duplicate pod %s", p.Name)
		}
		// The tick and the actuation path look a bound pod's node and a
		// replica's service up without a check.
		if _, ok := c.nodes[p.Node]; p.Node != "" && !ok {
			return fmt.Errorf("cluster: ckpt: pod %s bound to unknown node %s", p.Name, p.Node)
		}
		if _, ok := c.apps[p.App]; !p.IsTask() && !ok {
			return fmt.Errorf("cluster: ckpt: pod %s of unknown service %s", p.Name, p.App)
		}
		c.pods[p.Name] = p
		c.byName = podInsert(c.byName, p, byNameLess)
		if !p.IsTask() {
			c.byApp[p.App] = podInsert(c.byApp[p.App], p, byCreationLess)
		}
		switch {
		case p.Node != "":
			c.byNode[p.Node] = podInsert(c.byNode[p.Node], p, byNameLess)
		case p.Phase == Pending:
			c.pending = podInsert(c.pending, p, pendingLess)
		}
	}

	dropped := r.U64()
	ne := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if ne < 0 || ne > eventLogCapacity {
		return fmt.Errorf("cluster: ckpt: event count %d out of range", ne)
	}
	c.events = eventLog{}
	for i := 0; i < ne; i++ {
		rest := r.Rest()
		if _, err := loadRecord(r); err != nil {
			return fmt.Errorf("cluster: ckpt: journal record %d: %w", i, err)
		}
		c.events.push(rest[:len(rest)-len(r.Rest())])
	}
	c.events.dropped = dropped

	c.lastTick = TickResult{
		At:             r.Dur(),
		RegistryFaults: r.Int(),
		BindFailures:   r.Int(),
		SamplesDropped: r.Int(),
		SamplesStale:   r.Int(),
	}

	c.hot.lastPhaseAt = r.Dur()
	c.hot.usageStale = false

	if err := c.met.CkptLoad(r); err != nil {
		return err
	}
	if err := c.restoreFrames(); err != nil {
		return err
	}
	c.restoreAppUsage()
	c.version = r.U64()
	return r.Err()
}

// restoreFrames resolves the tick frame of every app whose series the
// checkpoint holds, so a checkpoint in which they are not exactly the
// columns of one frame fails the restore instead of the next tick. Apps
// that had not ticked yet keep resolving lazily, so the restored world
// creates no series early.
func (c *Cluster) restoreFrames() error {
	for _, st := range c.appList {
		st.h = appHandles{}
		if !slices.ContainsFunc(appSeriesNames(st.obj.Spec.Name), c.met.HasSeries) {
			continue
		}
		if err := st.resolveHandles(c.met); err != nil {
			return fmt.Errorf("cluster: ckpt: %w", err)
		}
	}
	return nil
}

// restoreAppUsage rebuilds the dense per-app usage from the values the
// last tick recorded in each restored app frame's usage columns, so the
// restored hot state agrees with the restored pods (CheckInvariants).
// The tick itself never reads it before P2 overwrites it.
func (c *Cluster) restoreAppUsage() {
	for _, st := range c.appList {
		var u resource.Vector
		if f := st.h.frame; f != nil {
			for _, k := range resource.Kinds() {
				if s, ok := f.Column(colUsage + int(k)).Last(); ok && s.At == c.hot.lastPhaseAt {
					u[k] = s.Value
				}
			}
		}
		c.hot.appUsage[st.hotIdx] = u
	}
}
