// Package cluster is the simulated Kubernetes-style substrate the EVOLVE
// stack runs on: nodes with multi-resource capacities, pods with granted
// allocations, replicated service applications driven by queueing-model
// performance curves, and batch/HPC task pods with bottleneck-law
// durations. The cluster exposes the same control surface a real
// controller would use — metrics observations in, resize/scale/placement
// decisions out — while remaining a deterministic discrete-event
// simulation (see DESIGN.md for the substitution rationale).
package cluster

import (
	"fmt"
	"time"

	"evolve/internal/perf"
	"evolve/internal/plo"
	"evolve/internal/resource"
)

// Object kinds. Trace events name an object as kind/name.
const (
	KindNode = "node"
	KindPod  = "pod"
	KindApp  = "app"
)

// Phase is a pod lifecycle phase.
type Phase int

// Pod lifecycle phases.
const (
	Pending Phase = iota
	Running
	Succeeded
	Failed
)

// String returns the canonical phase name.
func (p Phase) String() string {
	switch p {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Succeeded:
		return "succeeded"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Meta is the header every cluster object embeds. Kind and Name are
// immutable after creation.
type Meta struct {
	Kind string
	Name string
	// ResourceVersion is the cluster version (Cluster.version) stamped at
	// the object's creation or at its latest mutation.
	ResourceVersion uint64
	Labels          map[string]string
}

// NodeObject is the cluster's representation of a node.
type NodeObject struct {
	Meta
	Capacity resource.Vector
	// Allocatable is capacity minus the system reservation.
	Allocatable resource.Vector
	Ready       bool

	// Allocated is the sum of granted pod requests (maintained by the
	// cluster, not persisted input).
	Allocated resource.Vector
	// Usage is the lagged sum of pod usage, used for interference.
	Usage resource.Vector

	// Tick scratch, owned by the node's shard during parallel phases:
	// running is the bound-and-running pod count from the usage refresh.
	running int

	// Dense hot state (hotstate.go): slot is the node's index into the
	// cluster's dense arrays, pc the cached running-pod composition P3
	// gathers from.
	slot int32
	pc   nodePodCache
}

// Free returns unallocated headroom on the node.
func (n *NodeObject) Free() resource.Vector {
	return n.Allocatable.Sub(n.Allocated).ClampMin(0)
}

// PodObject is the cluster's representation of a pod. Service replicas and
// batch/HPC tasks share the type; Task is nil for service replicas.
type PodObject struct {
	Meta
	App      string
	Node     string // empty while pending
	Phase    Phase
	Requests resource.Vector
	Priority int

	// Usage is the most recent per-pod resource usage (lagged one tick).
	Usage resource.Vector

	// NodeSelector restricts which nodes may host this pod.
	NodeSelector map[string]string

	// Task describes a finite-work pod; nil for service replicas.
	Task *TaskSpec

	CreatedAt time.Duration
	BoundAt   time.Duration
	// ReadyAt is when a service replica starts serving (bind time plus
	// the application's startup delay); tasks are ready at bind.
	ReadyAt  time.Duration
	FinishAt time.Duration // tasks: scheduled completion

	// Span bookkeeping (spans.go). pendingSince marks the start of the
	// current pending segment (creation, or the eviction that re-queued
	// the pod) and everBound whether a first bind has happened; both are
	// maintained unconditionally so untraced latency histograms see the
	// same intervals traced spans do. causeAt is when the decision or
	// gang admission that created this pod was applied (zero for initial
	// deployment). spanID is the pod's root lifecycle span and causeSpan
	// its causal parent; both stay zero when tracing is off.
	pendingSince time.Duration
	causeAt      time.Duration
	everBound    bool
	spanID       uint64
	causeSpan    uint64
}

// IsTask reports whether the pod runs finite work.
func (p *PodObject) IsTask() bool { return p.Task != nil }

// AppObject is the cluster's representation of a service application.
type AppObject struct {
	Meta
	Spec            ServiceSpec
	DesiredReplicas int
	// Alloc is the desired per-replica allocation.
	Alloc resource.Vector
}

// ServiceSpec declares one replicated, latency- or throughput-sensitive
// service application.
type ServiceSpec struct {
	Name  string
	Model perf.ServiceModel
	PLO   plo.PLO

	InitialReplicas int
	InitialAlloc    resource.Vector

	// MinAlloc/MaxAlloc bound vertical scaling; MaxReplicas bounds
	// horizontal scaling (0 = unbounded).
	MinAlloc    resource.Vector
	MaxAlloc    resource.Vector
	MaxReplicas int

	// Priority relative to other pods (services usually > tasks).
	Priority int

	// StartupDelay is how long a freshly placed replica takes before it
	// serves traffic (image pull, init, warmup). Zero means instant.
	// In-place vertical resizes are never delayed — that asymmetry is
	// why the controller prefers them.
	StartupDelay time.Duration

	// NodeSelector restricts replicas to nodes carrying these labels.
	NodeSelector map[string]string
}

// Validate reports spec errors.
func (s ServiceSpec) Validate() error {
	if s.StartupDelay < 0 {
		return fmt.Errorf("cluster: service %s: negative startup delay", s.Name)
	}
	if s.Name == "" {
		return fmt.Errorf("cluster: service needs a name")
	}
	if err := s.Model.Validate(); err != nil {
		return fmt.Errorf("cluster: service %s: %w", s.Name, err)
	}
	if err := s.PLO.Validate(); err != nil {
		return fmt.Errorf("cluster: service %s: %w", s.Name, err)
	}
	if s.InitialReplicas < 1 {
		return fmt.Errorf("cluster: service %s: needs at least one replica", s.Name)
	}
	if s.InitialAlloc.IsZero() {
		return fmt.Errorf("cluster: service %s: zero initial allocation", s.Name)
	}
	if !s.MinAlloc.IsZero() && !s.MaxAlloc.IsZero() && !s.MaxAlloc.Dominates(s.MinAlloc) {
		return fmt.Errorf("cluster: service %s: MaxAlloc must dominate MinAlloc", s.Name)
	}
	return nil
}

// TaskSpec declares one finite-work pod (a big-data task or an HPC rank).
type TaskSpec struct {
	Name     string
	Job      string
	Model    perf.TaskModel
	Requests resource.Vector
	Priority int
	// NodeSelector restricts this task to nodes carrying these labels.
	NodeSelector map[string]string
	// OnDone is invoked when the task finishes; failed is true when the
	// pod was killed (node failure or preemption) rather than completing.
	OnDone func(name string, failed bool)
}

// Validate reports spec errors.
func (t TaskSpec) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("cluster: task needs a name")
	}
	if t.Requests.IsZero() {
		return fmt.Errorf("cluster: task %s: zero requests", t.Name)
	}
	return nil
}
