package cluster

import (
	"fmt"
	"slices"

	"evolve/internal/obs"
	"evolve/internal/perf"
	"evolve/internal/sched"
)

// SubmitTask enqueues one finite-work pod; it is placed on the next tick
// (big-data tasks tolerate queueing).
func (c *Cluster) SubmitTask(spec TaskSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if _, ok := c.pods[spec.Name]; ok {
		return fmt.Errorf("cluster: pod %s already exists", spec.Name)
	}
	p := c.newTaskPod(spec)
	c.create(&p.Meta)
	c.pods[p.Name] = p
	c.indexAddPod(p)
	return nil
}

// SubmitGang places an all-or-nothing set of task pods (an HPC job's
// ranks). If the gang does not fit right now, nothing is created and the
// scheduler error is returned — the HPC queue retries later.
func (c *Cluster) SubmitGang(specs []TaskSpec) error {
	if len(specs) == 0 {
		return fmt.Errorf("cluster: empty gang")
	}
	infos := make([]sched.PodInfo, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return err
		}
		if _, ok := c.pods[s.Name]; ok {
			return fmt.Errorf("cluster: pod %s already exists", s.Name)
		}
		if slices.ContainsFunc(specs[:i], func(r TaskSpec) bool { return r.Name == s.Name }) {
			return fmt.Errorf("cluster: gang %s repeats rank %s", s.Job, s.Name)
		}
		infos[i] = sched.PodInfo{Name: s.Name, App: s.Job, Requests: s.Requests, Priority: s.Priority, NodeSelector: s.NodeSelector}
	}
	assignment, err := c.sch.ScheduleGang(infos, c.nodeInfos())
	if err != nil {
		return err
	}
	// Gang admission is the causal anchor for every rank: the spans of the
	// pods created below parent to it, and their decision→effect samples
	// measure admission→bind lag (zero here — gangs bind synchronously —
	// but the chain still explains *why* each rank exists).
	now := c.now()
	var gangSpan uint64
	if c.tracer.Enabled() {
		gangSpan = c.tracer.RecordSpan(obs.Span{
			Kind: obs.SpanGang, App: specs[0].Job, Object: specs[0].Job,
			Detail: fmt.Sprintf("ranks=%d", len(specs)),
			Shard:  -1, Start: now, End: now,
		})
	}
	// All-or-nothing also on the commit side: if any bind fails partway
	// (a node dying between the gang decision and the bind), roll back
	// every rank already placed and report the error — the HPC queue sees
	// the same "does not fit" contract as a failed ScheduleGang.
	created := make([]*PodObject, 0, len(specs))
	rollback := func(cause error) error {
		for _, q := range created {
			c.deletePod(q)
		}
		c.met.Counter("faults/gang-rollback").Inc()
		c.recordEvent(kindGangRollback, specs[0].Job, msgGangRollback, eventArgs{s: [2]string{cause.Error()}, n: len(created)})
		return fmt.Errorf("cluster: gang %s aborted: %w", specs[0].Job, cause)
	}
	for _, s := range specs {
		p := c.newTaskPod(s)
		p.causeSpan, p.causeAt = gangSpan, now
		c.create(&p.Meta)
		c.pods[p.Name] = p
		c.indexAddPod(p)
		created = append(created, p)
		if err := c.bind(p, assignment[p.Name]); err != nil {
			return rollback(err)
		}
	}
	c.met.Counter("sched/gangs").Inc()
	return nil
}

func (c *Cluster) newTaskPod(spec TaskSpec) *PodObject {
	specCopy := spec
	return &PodObject{
		Meta:         Meta{Kind: KindPod, Name: spec.Name},
		App:          spec.Job,
		Phase:        Pending,
		Requests:     spec.Requests,
		Priority:     spec.Priority,
		NodeSelector: spec.NodeSelector,
		Task:         &specCopy,
		CreatedAt:    c.now(),
		pendingSince: c.now(),
	}
}

// armTaskCompletion schedules the task's completion event. The duration
// is computed at bind time from the granted allocation and the node's
// current interference; a kill (eviction) before the deadline cancels the
// completion because the pod is gone from the map by then.
func (c *Cluster) armTaskCompletion(p *PodObject) {
	slowdown := 1.0
	if c.cfg.Interference {
		if n, ok := c.nodes[p.Node]; ok {
			pressure, _ := n.Usage.DominantShare(n.Allocatable)
			slowdown = perf.InterferenceSlowdown(pressure)
		}
	}
	d := p.Task.Model.Duration(p.Requests, slowdown)
	p.FinishAt = c.now() + d
	// Tasks consume their full grant while running; that is what the
	// interference model sees.
	p.Usage = p.Requests
	name := p.Name
	boundAt := p.BoundAt
	c.eng.TagNext("task", taskTimerArg(name, boundAt))
	c.eng.After(d, c.taskCompletionFn(name, boundAt))
}

// KillTask evicts a pending or running task pod; its OnDone callback
// fires with failed=true. The HPC queue uses this to tear down the
// surviving ranks of a rigid job that lost one.
func (c *Cluster) KillTask(name string) error {
	p, ok := c.pods[name]
	if !ok {
		return fmt.Errorf("cluster: unknown task %s", name)
	}
	if !p.IsTask() {
		return fmt.Errorf("cluster: pod %s is not a task", name)
	}
	c.evict(p, "killed")
	return nil
}

func (c *Cluster) completeTask(p *PodObject) {
	node := p.Node
	c.release(p)
	p.Phase = Succeeded
	c.update(&p.Meta)
	done := p.Task.OnDone
	name := p.Name
	c.indexRemovePod(p)
	delete(c.pods, p.Name)
	c.traceLifecycle(obs.VerbDeleted, &p.Meta)
	c.met.Counter("tasks/completed").Inc()
	c.recordEvent(kindTaskCompleted, name, msgTaskDone, eventArgs{s: [2]string{node}})
	if c.tracer.Enabled() {
		c.emitSegmentSpan(p, node, "completed")
	}
	if done != nil {
		done(name, false)
	}
}
