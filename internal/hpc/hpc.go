// Package hpc is the high-performance-computing substrate: rigid,
// gang-scheduled jobs (all ranks start together or not at all) dispatched
// from a Slurm-like queue with FCFS or backfill ordering. Rank pods run
// on the shared cluster at batch priority, so the converged experiments
// capture the interplay between HPC gangs, analytics DAGs and
// latency-sensitive services on one substrate.
package hpc

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"evolve/internal/cluster"
	"evolve/internal/perf"
	"evolve/internal/resource"
	"evolve/internal/sched"
)

// JobSpec declares one rigid job of identical ranks.
type JobSpec struct {
	Name     string
	Ranks    int
	PerRank  resource.Vector
	Model    perf.TaskModel // per-rank work
	Priority int
	// MaxRestarts bounds whole-job restarts after a rank is killed
	// (rigid jobs cannot survive a lost rank). Default 2.
	MaxRestarts int
	// NodeSelector restricts ranks to labeled nodes.
	NodeSelector map[string]string
}

// Validate checks the spec.
func (j JobSpec) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("hpc: job needs a name")
	}
	if j.Ranks <= 0 {
		return fmt.Errorf("hpc: job %s needs at least one rank", j.Name)
	}
	if j.PerRank.IsZero() {
		return fmt.Errorf("hpc: job %s has zero per-rank requests", j.Name)
	}
	return nil
}

// Policy orders the dispatch queue.
type Policy int

const (
	// FCFS dispatches strictly in arrival order; the queue head blocks
	// everything behind it.
	FCFS Policy = iota
	// Backfill lets later jobs jump ahead when the head does not fit,
	// trading strict fairness for utilisation (reservation-less, with a
	// bounded look-ahead). Long backfilled jobs can push the head back.
	Backfill
	// EASY is backfill with a head reservation: the blocked head gets a
	// shadow start time (when enough running ranks will have finished),
	// and only jobs expected to complete before that time may jump ahead.
	// Utilisation without head starvation — the Slurm default.
	EASY
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Backfill:
		return "backfill"
	case EASY:
		return "easy"
	default:
		return "fcfs"
	}
}

// ParsePolicy is the inverse of Policy.String, in any case. The empty
// name means Backfill.
func ParsePolicy(name string) (Policy, error) {
	if name == "" {
		return Backfill, nil
	}
	for _, p := range []Policy{FCFS, Backfill, EASY} {
		if strings.EqualFold(name, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown hpc queue %q (want backfill, easy or fcfs)", name)
}

type jobState struct {
	spec        JobSpec
	submittedAt time.Duration
	startedAt   time.Duration
	finishedAt  time.Duration
	started     bool
	done        bool
	failed      bool
	restarts    int
	remaining   int
	attempt     int
	aborted     int // attempt number torn down after a rank failure
}

// Queue is the HPC dispatch queue.
type Queue struct {
	c      *cluster.Cluster
	policy Policy
	// lookahead bounds how deep backfill searches past the head.
	lookahead int
	pending   []*jobState
	all       map[string]*jobState
	onDone    func(job string, wait, runtime time.Duration)
}

// NewQueue returns a queue on the cluster with the given policy. The
// queue retries dispatch on every cluster tick.
func NewQueue(c *cluster.Cluster, policy Policy) *Queue {
	q := &Queue{c: c, policy: policy, lookahead: 8, all: make(map[string]*jobState)}
	c.Engine().TagNext("hpc-dispatch", "")
	c.Engine().Every(c.Config().MetricsInterval, q.Dispatch)
	return q
}

// ReattachRank returns the completion callback for a restored rank pod.
// The attempt number is recovered from the pod name's suffix (the job
// name itself is supplied by the cluster's task record, so the parse is
// unambiguous); callbacks from superseded attempts stay inert exactly as
// they would have in the original run.
func (q *Queue) ReattachRank(pod, job string) (func(string, bool), error) {
	js, ok := q.all[job]
	if !ok {
		return nil, fmt.Errorf("hpc: rank pod %s references unknown job %s", pod, job)
	}
	suffix := strings.TrimPrefix(pod, job)
	var attempt, rank int
	if _, err := fmt.Sscanf(suffix, "-a%d-rank%d", &attempt, &rank); err != nil {
		return nil, fmt.Errorf("hpc: rank pod %s has unparseable suffix %q: %v", pod, suffix, err)
	}
	return func(_ string, failed bool) {
		q.rankDone(js, attempt, failed)
	}, nil
}

// OnJobDone installs a completion callback (wait = queue time,
// runtime = start to finish).
func (q *Queue) OnJobDone(fn func(job string, wait, runtime time.Duration)) { q.onDone = fn }

// Submit enqueues a job and attempts immediate dispatch.
func (q *Queue) Submit(spec JobSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if _, ok := q.all[spec.Name]; ok {
		return fmt.Errorf("hpc: job %s already submitted", spec.Name)
	}
	if spec.MaxRestarts <= 0 {
		spec.MaxRestarts = 2
	}
	js := &jobState{spec: spec, submittedAt: q.c.Engine().Now()}
	q.all[spec.Name] = js
	q.pending = append(q.pending, js)
	q.Dispatch()
	return nil
}

// Dispatch tries to start queued jobs according to the policy: FCFS only
// ever attempts the head; backfill scans up to the look-ahead depth and
// starts any job that fits; EASY additionally requires a backfilled job
// to finish before the blocked head's shadow start time.
func (q *Queue) Dispatch() {
	for {
		depth := 1
		if q.policy == Backfill || q.policy == EASY {
			depth = q.lookahead
		}
		if depth > len(q.pending) {
			depth = len(q.pending)
		}
		started := -1
		var shadow time.Duration = -1
		for i := 0; i < depth; i++ {
			js := q.pending[i]
			if i > 0 && q.policy == EASY {
				if shadow < 0 {
					shadow = q.shadowTime(q.pending[0])
				}
				est := js.spec.Model.Duration(js.spec.PerRank, 1)
				if shadow >= 0 && q.c.Engine().Now()+est > shadow {
					continue // would delay the reserved head
				}
			}
			if q.tryStart(js) {
				started = i
				break
			}
		}
		if started < 0 {
			return
		}
		q.pending = append(q.pending[:started], q.pending[started+1:]...)
	}
}

// shadowTime estimates when the blocked head could start: walk the
// currently running task pods in completion order, hypothetically
// releasing their allocations, until the head's gang fits. Returns -1
// when even a drained cluster cannot host the gang (the head is then not
// reservable and EASY degenerates to plain backfill for safety).
func (q *Queue) shadowTime(head *jobState) time.Duration {
	infos := q.c.NodeInfos()
	byName := make(map[string]int, len(infos))
	for i, n := range infos {
		byName[n.Name] = i
	}
	gang := make([]sched.PodInfo, head.spec.Ranks)
	for r := range gang {
		gang[r] = sched.PodInfo{
			Name:         fmt.Sprintf("shadow-%s-%d", head.spec.Name, r),
			App:          head.spec.Name,
			Requests:     head.spec.PerRank,
			Priority:     head.spec.Priority,
			NodeSelector: head.spec.NodeSelector,
		}
	}
	// Releases in completion order.
	type release struct {
		at   time.Duration
		node string
		req  resource.Vector
	}
	var rel []release
	for _, p := range q.c.Pods() {
		if p.IsTask() && p.Phase == cluster.Running {
			rel = append(rel, release{p.FinishAt, p.Node, p.Requests})
		}
	}
	sort.Slice(rel, func(i, j int) bool { return rel[i].at < rel[j].at })
	if _, err := q.c.Scheduler().ScheduleGang(gang, infos); err == nil {
		return q.c.Engine().Now()
	}
	for _, r := range rel {
		if i, ok := byName[r.node]; ok {
			infos[i].Allocated = infos[i].Allocated.Sub(r.req).ClampMin(0)
		}
		if _, err := q.c.Scheduler().ScheduleGang(gang, infos); err == nil {
			return r.at
		}
	}
	return -1
}

// tryStart attempts to gang-place all ranks of the job.
func (q *Queue) tryStart(js *jobState) bool {
	js.attempt++
	attempt := js.attempt
	specs := make([]cluster.TaskSpec, js.spec.Ranks)
	for rank := 0; rank < js.spec.Ranks; rank++ {
		specs[rank] = cluster.TaskSpec{
			Name:         rankPodName(js.spec.Name, attempt, rank),
			Job:          js.spec.Name,
			Model:        js.spec.Model,
			Requests:     js.spec.PerRank,
			Priority:     js.spec.Priority,
			NodeSelector: js.spec.NodeSelector,
			OnDone: func(_ string, failed bool) {
				q.rankDone(js, attempt, failed)
			},
		}
	}
	if err := q.c.SubmitGang(specs); err != nil {
		js.attempt-- // attempt never materialised
		return false
	}
	now := q.c.Engine().Now()
	if !js.started {
		js.started = true
		js.startedAt = now
		q.c.Metrics().Series("hpc/wait").Add(now, (now - js.submittedAt).Seconds())
	}
	js.remaining = js.spec.Ranks
	q.c.Metrics().Counter("hpc/jobs-started").Inc()
	return true
}

// rankDone handles one rank finishing or being killed. Events from
// attempts that were torn down or superseded are ignored.
func (q *Queue) rankDone(js *jobState, attempt int, failed bool) {
	if js.done || attempt != js.attempt || attempt == js.aborted {
		return
	}
	if failed {
		// Rigid job: a lost rank aborts the whole attempt. Tear down the
		// surviving ranks (their OnDone callbacks are ignored via the
		// aborted marker) and restart from the queue head.
		js.aborted = attempt
		for rank := 0; rank < js.spec.Ranks; rank++ {
			_ = q.c.KillTask(rankPodName(js.spec.Name, attempt, rank))
		}
		js.restarts++
		q.c.Metrics().Counter("hpc/rank-failures").Inc()
		if js.restarts > js.spec.MaxRestarts {
			js.done, js.failed = true, true
			q.c.Metrics().Counter("hpc/jobs-failed").Inc()
			return
		}
		// Re-enqueue at the head (it has seniority).
		q.pending = append([]*jobState{js}, q.pending...)
		return
	}
	js.remaining--
	if js.remaining > 0 {
		return
	}
	js.done = true
	js.finishedAt = q.c.Engine().Now()
	q.c.Metrics().Counter("hpc/jobs-completed").Inc()
	q.c.Metrics().Series("hpc/runtime").Add(js.finishedAt, (js.finishedAt - js.startedAt).Seconds())
	if q.onDone != nil {
		q.onDone(js.spec.Name, js.startedAt-js.submittedAt, js.finishedAt-js.startedAt)
	}
	q.Dispatch()
}

func rankPodName(job string, attempt, rank int) string {
	return fmt.Sprintf("%s-a%d-rank%d", job, attempt, rank)
}

// QueueLength returns the number of jobs waiting for dispatch.
func (q *Queue) QueueLength() int { return len(q.pending) }

// Status reports a job's lifecycle: queued/running/done/failed.
func (q *Queue) Status(job string) (string, error) {
	js, ok := q.all[job]
	if !ok {
		return "", fmt.Errorf("hpc: unknown job %s", job)
	}
	switch {
	case js.failed:
		return "failed", nil
	case js.done:
		return "done", nil
	case js.started && js.remaining > 0:
		return "running", nil
	default:
		return "queued", nil
	}
}

// Stats summarises completed jobs: mean wait and mean runtime.
func (q *Queue) Stats() (meanWait, meanRuntime time.Duration, completed int) {
	var wait, run time.Duration
	names := make([]string, 0, len(q.all))
	for n := range q.all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		js := q.all[n]
		if !js.done || js.failed {
			continue
		}
		completed++
		wait += js.startedAt - js.submittedAt
		run += js.finishedAt - js.startedAt
	}
	if completed > 0 {
		meanWait = wait / time.Duration(completed)
		meanRuntime = run / time.Duration(completed)
	}
	return meanWait, meanRuntime, completed
}
