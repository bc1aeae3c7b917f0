// Package sched implements the placement engine of the EVOLVE control
// plane in the style of the Kubernetes scheduling framework: filter
// plugins rule nodes out, score plugins rank the survivors, and a small
// set of higher-level operations (gang scheduling for HPC jobs, priority
// preemption for latency-critical services) build on the same primitives.
// The package is a pure library over PodInfo/NodeInfo snapshots so it can
// be tested and benchmarked in isolation from the cluster substrate.
//
// Two placement paths share one probe core:
//
//   - Schedule walks a plain []NodeInfo. It is the brute-force reference:
//     every node is probed. Use it for hypothetical queries over ad-hoc
//     snapshots (EASY backfill, examples, tests).
//   - ScheduleOn reads a *Snapshot, which caches a max-heap of the
//     feasible nodes for the last pod class it served (see snapshot.go):
//     a run of replicas of one service costs one O(nodes) scan, then
//     O(log nodes) per replica, because each Commit rescores only the
//     node that received the pod. The cluster's pending-pod loop and gang
//     placement use this path.
//
// Both paths are allocation-free in steady state: filters report typed,
// preallocated Reason values instead of formatted errors, and the rich
// per-node messages of an Unschedulable error are materialised only on
// the failure path.
package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"evolve/internal/resource"
)

// PodInfo is the scheduler's view of one pod.
type PodInfo struct {
	Name     string
	App      string
	Requests resource.Vector
	// Priority orders preemption: higher-priority pods may evict lower
	// ones. Services typically run at higher priority than batch tasks.
	Priority int
	// NodeSelector restricts placement to nodes carrying all of these
	// labels (Kubernetes nodeSelector semantics). Empty means any node.
	NodeSelector map[string]string
}

// NodeInfo is the scheduler's view of one node.
type NodeInfo struct {
	Name        string
	Allocatable resource.Vector
	Allocated   resource.Vector
	Pods        []PodInfo
	// Labels carry operator-assigned node attributes ("pool=hpc",
	// "disk=nvme") matched against pod NodeSelectors.
	Labels map[string]string
}

// Free returns the unallocated headroom.
func (n *NodeInfo) Free() resource.Vector {
	return n.Allocatable.Sub(n.Allocated).ClampMin(0)
}

// invAllocatable caches the reciprocal of each allocatable dimension so
// the score hot path multiplies instead of divides. Zero-capacity
// dimensions get a zero reciprocal; the fit filter has already rejected
// any pod demanding capacity there, so the pod's contribution is 0 in
// both formulations. Precondition: Allocated must also be 0 on any
// zero-capacity dimension — a nonzero Allocated there would score as
// share 0 here but dominant share +Inf through Vector.Div in the plugin
// chain. The cluster never produces such nodes, and
// Snapshot.CheckInvariants rejects them.
func invAllocatable(alloc resource.Vector) resource.Vector {
	var inv resource.Vector
	for i := range alloc {
		if alloc[i] > 0 {
			inv[i] = 1 / alloc[i]
		}
	}
	return inv
}

// Reason is a typed, preallocated rejection code returned by filter
// plugins. The empty reason means the node is feasible. Reasons are
// static strings so the probe hot path never formats or allocates;
// plugins that can say more implement Explainer, which is consulted only
// on the Unschedulable aggregation path.
type Reason string

// ReasonNone marks a feasible node.
const ReasonNone Reason = ""

// ReasonSelectorMismatch is SelectorFilter's static rejection code.
const ReasonSelectorMismatch Reason = "selector mismatch"

// fitReasons preallocates one combined "insufficient cpu,memory" style
// reason per shortage bitmask (bit k set = kind k short), in canonical
// kind order — the exact strings FitFilter used to format per rejection.
var fitReasons = func() [1 << resource.NumKinds]Reason {
	var out [1 << resource.NumKinds]Reason
	for mask := 1; mask < len(out); mask++ {
		var parts []string
		for _, k := range resource.Kinds() {
			if mask&(1<<uint(k)) != 0 {
				parts = append(parts, k.String())
			}
		}
		out[mask] = Reason("insufficient " + strings.Join(parts, ","))
	}
	return out
}()

// FilterPlugin rules a node in or out for a pod.
type FilterPlugin interface {
	Name() string
	// Filter returns ReasonNone when the node can host the pod, or a
	// static Reason explaining why not. Implementations must not
	// allocate: probing a node is the scheduler's innermost loop.
	Filter(pod *PodInfo, node *NodeInfo) Reason
}

// Explainer is an optional FilterPlugin extension producing a rich
// per-node rejection message. It is consulted only when a pod turns out
// unschedulable, so it may format and allocate.
type Explainer interface {
	Explain(pod *PodInfo, node *NodeInfo) string
}

// ScorePlugin ranks a feasible node for a pod; higher is better. Scores
// should be normalised to [0, 1]. Weight is read once at scheduler
// construction and cached.
type ScorePlugin interface {
	Name() string
	Score(pod *PodInfo, node *NodeInfo) float64
	Weight() float64
}

// FitFilter rejects nodes without headroom for the pod's requests.
type FitFilter struct{}

// Name implements FilterPlugin.
func (FitFilter) Name() string { return "fit" }

// Filter implements FilterPlugin.
func (FitFilter) Filter(pod *PodInfo, node *NodeInfo) Reason {
	free := node.Free()
	mask := 0
	for i := range pod.Requests {
		if pod.Requests[i] > free[i] {
			mask |= 1 << i
		}
	}
	return fitReasons[mask] // mask 0 is ReasonNone
}

// SelectorFilter rejects nodes missing any label the pod selects on.
type SelectorFilter struct{}

// Name implements FilterPlugin.
func (SelectorFilter) Name() string { return "selector" }

// Filter implements FilterPlugin.
func (SelectorFilter) Filter(pod *PodInfo, node *NodeInfo) Reason {
	for k, v := range pod.NodeSelector {
		if node.Labels[k] != v {
			return ReasonSelectorMismatch
		}
	}
	return ReasonNone
}

// Explain implements Explainer: it names the lexicographically smallest
// unmatched selector key, making the aggregated reason deterministic
// even for multi-key selectors.
func (SelectorFilter) Explain(pod *PodInfo, node *NodeInfo) string {
	bestK, bestV := "", ""
	for k, v := range pod.NodeSelector {
		if node.Labels[k] != v && (bestK == "" || k < bestK) {
			bestK, bestV = k, v
		}
	}
	if bestK == "" {
		return string(ReasonSelectorMismatch)
	}
	return fmt.Sprintf("selector %s=%s unmatched", bestK, bestV)
}

// LeastAllocated favours nodes with the most free capacity, spreading
// load — the Kubernetes default.
type LeastAllocated struct{ W float64 }

// Name implements ScorePlugin.
func (LeastAllocated) Name() string { return "least-allocated" }

// Weight implements ScorePlugin.
func (p LeastAllocated) Weight() float64 { return orDefault(p.W) }

// Score implements ScorePlugin.
func (LeastAllocated) Score(pod *PodInfo, node *NodeInfo) float64 {
	after := node.Allocated.Add(pod.Requests)
	frac, _ := after.DominantShare(node.Allocatable)
	return 1 - math.Min(frac, 1)
}

// MostAllocated favours nodes that are already busy, packing pods tightly
// to keep whole nodes free for gangs and to allow power-down.
type MostAllocated struct{ W float64 }

// Name implements ScorePlugin.
func (MostAllocated) Name() string { return "most-allocated" }

// Weight implements ScorePlugin.
func (p MostAllocated) Weight() float64 { return orDefault(p.W) }

// Score implements ScorePlugin.
func (MostAllocated) Score(pod *PodInfo, node *NodeInfo) float64 {
	after := node.Allocated.Add(pod.Requests)
	frac, _ := after.DominantShare(node.Allocatable)
	return math.Min(frac, 1)
}

// BalancedAllocation favours placements that keep per-resource usage
// fractions close to each other, avoiding nodes stranded with one
// exhausted dimension.
type BalancedAllocation struct{ W float64 }

// Name implements ScorePlugin.
func (BalancedAllocation) Name() string { return "balanced-allocation" }

// Weight implements ScorePlugin.
func (p BalancedAllocation) Weight() float64 { return orDefault(p.W) }

// Score implements ScorePlugin.
func (BalancedAllocation) Score(pod *PodInfo, node *NodeInfo) float64 {
	after := node.Allocated.Add(pod.Requests).Div(node.Allocatable)
	mean := after.Mean()
	var variance float64
	for _, k := range resource.Kinds() {
		d := after[k] - mean
		variance += d * d
	}
	variance /= float64(resource.NumKinds)
	return 1 - math.Min(math.Sqrt(variance), 1)
}

// AppSpread favours nodes hosting fewer replicas of the same application,
// for fault isolation.
type AppSpread struct{ W float64 }

// Name implements ScorePlugin.
func (AppSpread) Name() string { return "app-spread" }

// Weight implements ScorePlugin.
func (p AppSpread) Weight() float64 { return orDefault(p.W) }

// Score implements ScorePlugin.
func (AppSpread) Score(pod *PodInfo, node *NodeInfo) float64 {
	same := 0
	for i := range node.Pods {
		if node.Pods[i].App == pod.App {
			same++
		}
	}
	return 1 / (1 + float64(same))
}

func orDefault(w float64) float64 {
	if w <= 0 {
		return 1
	}
	return w
}

// fusedScore is the single-call scoring kernel of a built-in policy: the
// same arithmetic as the plugin chain, but with the per-dimension share
// vector computed once (via the snapshot's cached allocatable
// reciprocal) and shared across the sub-scores, and no interface
// dispatch per plugin.
type fusedScore func(pod *PodInfo, node *NodeInfo, inv *resource.Vector) float64

// scoreSpread fuses LeastAllocated(W:2) + BalancedAllocation(W:1) +
// AppSpread(W:1), the PolicySpread chain.
func scoreSpread(pod *PodInfo, node *NodeInfo, inv *resource.Vector) float64 {
	var r resource.Vector
	dom := math.Inf(-1)
	for i := range r {
		r[i] = (node.Allocated[i] + pod.Requests[i]) * inv[i]
		if r[i] > dom {
			dom = r[i]
		}
	}
	least := 1 - math.Min(dom, 1)
	sum := 0.0
	for i := range r {
		sum += r[i]
	}
	mean := sum / float64(resource.NumKinds)
	variance := 0.0
	for i := range r {
		d := r[i] - mean
		variance += d * d
	}
	variance /= float64(resource.NumKinds)
	balanced := 1 - math.Min(math.Sqrt(variance), 1)
	same := 0
	for i := range node.Pods {
		if node.Pods[i].App == pod.App {
			same++
		}
	}
	spread := 1 / (1 + float64(same))
	return (2*least + balanced + spread) / 4
}

// scoreBinPack fuses MostAllocated(W:2) + BalancedAllocation(W:1), the
// PolicyBinPack chain.
func scoreBinPack(pod *PodInfo, node *NodeInfo, inv *resource.Vector) float64 {
	var r resource.Vector
	dom := math.Inf(-1)
	for i := range r {
		r[i] = (node.Allocated[i] + pod.Requests[i]) * inv[i]
		if r[i] > dom {
			dom = r[i]
		}
	}
	most := math.Min(dom, 1)
	sum := 0.0
	for i := range r {
		sum += r[i]
	}
	mean := sum / float64(resource.NumKinds)
	variance := 0.0
	for i := range r {
		d := r[i] - mean
		variance += d * d
	}
	variance /= float64(resource.NumKinds)
	balanced := 1 - math.Min(math.Sqrt(variance), 1)
	return (2*most + balanced) / 3
}

// Policy selects a pre-assembled plugin set.
type Policy int

const (
	// PolicySpread is the Kubernetes-like default: least-allocated +
	// balanced + app spread.
	PolicySpread Policy = iota
	// PolicyBinPack packs tightly: most-allocated + balanced.
	PolicyBinPack
)

// Stats counts the scheduler's probe work since the last ResetStats —
// the observability surface for the snapshot's class heap.
type Stats struct {
	// Calls counts Schedule/ScheduleOn invocations (gang members included).
	Calls uint64
	// Probed counts nodes that ran the filter/score probe: every node per
	// Schedule call, every live node per heap rebuild, and the committed
	// node per Snapshot.Commit when it is in the cached heap.
	Probed uint64
	// Reused counts ScheduleOn calls answered from a cached heap, without
	// a scan. It is high when consecutive pods share a class.
	Reused uint64
	// GangCalls and Preempts count the higher-level operations.
	GangCalls uint64
	Preempts  uint64
}

// Scheduler runs the framework. Configure with New or assemble plugins
// directly. A Scheduler owns reusable scratch and is not safe for
// concurrent use.
type Scheduler struct {
	filters []FilterPlugin
	scorers []ScorePlugin
	// weights caches scorers[i].Weight() (and wsum their total) so the
	// generic score loop never re-queries plugins per node.
	weights []float64
	wsum    float64
	// fused is the policy's fused scoring kernel; nil for custom plugin
	// sets, which take the generic loop.
	fused fusedScore
	// stdFilters short-circuits the filter chain when it is exactly
	// {SelectorFilter, FitFilter}: the probe then checks the selector and
	// the cached headroom inline with zero interface dispatch.
	stdFilters bool

	// Reusable scratch (see the respective call sites). The scheduler is
	// single-caller; one buffer of each suffices.
	gangSnap  *Snapshot
	gangOrder []int32
	gangShare []float64
	pCand     []PodInfo
	pVict     []PodInfo
	pKept     []PodInfo
	// schedPod/schedInv back the pod and reciprocal-allocatable pointers
	// handed to plugin interfaces and the fused kernel. Escape analysis
	// sends indirect-call pointer arguments to the heap; pointing them at
	// scheduler-owned scratch keeps Schedule/ScheduleOn allocation-free.
	schedPod PodInfo
	schedInv resource.Vector

	stats Stats
}

// New returns a scheduler with the plugin set for the policy.
func New(p Policy) *Scheduler {
	s := &Scheduler{filters: []FilterPlugin{SelectorFilter{}, FitFilter{}}}
	switch p {
	case PolicyBinPack:
		s.scorers = []ScorePlugin{MostAllocated{W: 2}, BalancedAllocation{W: 1}}
		s.fused = scoreBinPack
	default:
		s.scorers = []ScorePlugin{LeastAllocated{W: 2}, BalancedAllocation{W: 1}, AppSpread{W: 1}}
		s.fused = scoreSpread
	}
	s.finish()
	return s
}

// NewCustom returns a scheduler with explicit plugins; filters must
// include at least one plugin (normally FitFilter).
func NewCustom(filters []FilterPlugin, scorers []ScorePlugin) (*Scheduler, error) {
	if len(filters) == 0 {
		return nil, fmt.Errorf("sched: at least one filter plugin required")
	}
	s := &Scheduler{filters: filters, scorers: scorers}
	s.finish()
	return s, nil
}

// finish caches plugin weights and detects the fast-path filter chain.
func (s *Scheduler) finish() {
	s.weights = make([]float64, len(s.scorers))
	for i, sc := range s.scorers {
		s.weights[i] = sc.Weight()
		s.wsum += s.weights[i]
	}
	if len(s.filters) == 2 {
		_, sel := s.filters[0].(SelectorFilter)
		_, fit := s.filters[1].(FitFilter)
		s.stdFilters = sel && fit
	}
}

// Stats returns the probe counters accumulated since the last ResetStats.
func (s *Scheduler) Stats() Stats { return s.stats }

// ResetStats zeroes the probe counters.
func (s *Scheduler) ResetStats() { s.stats = Stats{} }

// Unschedulable reports why no node could host a pod, with per-reason
// node counts in the style of the Kubernetes event message.
type Unschedulable struct {
	Pod     string
	Total   int
	Reasons map[string]int
}

func (u *Unschedulable) Error() string {
	if len(u.Reasons) == 0 {
		return fmt.Sprintf("sched: pod %s unschedulable: no nodes", u.Pod)
	}
	keys := make([]string, 0, len(u.Reasons))
	for k := range u.Reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%d %s", u.Reasons[k], k)
	}
	return fmt.Sprintf("sched: 0/%d nodes available for %s: %s", u.Total, u.Pod, strings.Join(parts, "; "))
}

// unschedulable aggregates the per-node rejection reasons. Failure path
// only: the success path never formats a reason, so every successful
// call is spared the map and the message strings.
func (s *Scheduler) unschedulable(pod *PodInfo, nodes []NodeInfo) error {
	reasons := make(map[string]int)
	for i := range nodes {
		node := &nodes[i]
		for _, f := range s.filters {
			if r := f.Filter(pod, node); r != ReasonNone {
				msg := string(r)
				if ex, ok := f.(Explainer); ok {
					msg = ex.Explain(pod, node)
				}
				reasons[msg]++
				break
			}
		}
	}
	return &Unschedulable{Pod: pod.Name, Total: len(nodes), Reasons: reasons}
}

// feasible runs the filter chain. free is the node's cached headroom
// (snapshot path) or freshly computed (slice path); the fast path for
// the standard chain checks it inline.
func (s *Scheduler) feasible(pod *PodInfo, node *NodeInfo, free *resource.Vector) bool {
	if s.stdFilters {
		for k, v := range pod.NodeSelector {
			if node.Labels[k] != v {
				return false
			}
		}
		return pod.Requests.Fits(*free)
	}
	for _, f := range s.filters {
		if f.Filter(pod, node) != ReasonNone {
			return false
		}
	}
	return true
}

// scoreNode scores one feasible node through the fused kernel or the
// generic plugin loop.
func (s *Scheduler) scoreNode(pod *PodInfo, node *NodeInfo, inv *resource.Vector) float64 {
	if s.fused != nil {
		return s.fused(pod, node, inv)
	}
	var total float64
	for i, sc := range s.scorers {
		total += s.weights[i] * sc.Score(pod, node)
	}
	if s.wsum == 0 {
		return 0
	}
	return total / s.wsum
}

// Schedule picks the best node for the pod, or returns *Unschedulable.
// Ties break lexicographically by node name for determinism. This is the
// brute-force reference path: every node is probed. The cluster hot path
// uses ScheduleOn, which reads the snapshot's class heap; both paths pick
// identical nodes (see the equivalence tests).
func (s *Scheduler) Schedule(pod PodInfo, nodes []NodeInfo) (string, error) {
	s.stats.Calls++
	s.stats.Probed += uint64(len(nodes))
	s.schedPod = pod
	p := &s.schedPod
	best := -1
	bestScore := math.Inf(-1)
	for i := range nodes {
		node := &nodes[i]
		free := node.Free()
		if !s.feasible(p, node, &free) {
			continue
		}
		s.schedInv = invAllocatable(node.Allocatable)
		score := s.scoreNode(p, node, &s.schedInv)
		if best < 0 || score > bestScore || (score == bestScore && node.Name < nodes[best].Name) {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return "", s.unschedulable(p, nodes)
	}
	return nodes[best].Name, nil
}

// ScheduleOn picks the best node for the pod from the snapshot. A pod of
// the class the snapshot's heap already serves is answered from the heap
// top; any other pod rebuilds the heap with one scan (see snapshot.go).
// The choice is identical to Schedule over the same live node set.
func (s *Scheduler) ScheduleOn(pod PodInfo, snap *Snapshot) (string, error) {
	s.schedPod = pod
	return s.scheduleOn(&s.schedPod, snap)
}

func (s *Scheduler) scheduleOn(pod *PodInfo, snap *Snapshot) (string, error) {
	s.stats.Calls++
	if snap.serves(s, pod) {
		s.stats.Reused++
		snap.heapify()
	} else {
		snap.rebuild(s, pod)
	}
	if len(snap.heap) == 0 {
		return "", s.unschedulable(pod, snap.nodes)
	}
	return snap.nodes[snap.heap[0]].Name, nil
}

// fitsFree reports req <= free without copying either vector; small
// enough to inline into the rebuild scan.
func fitsFree(req, free *resource.Vector) bool {
	for i := range req {
		if req[i] > free[i] {
			return false
		}
	}
	return true
}

// plainProbe reports whether the rebuild scan can reduce the filter
// chain to a bare headroom compare: standard filters and no selector.
func (s *Scheduler) plainProbe(pod *PodInfo) bool {
	return s.stdFilters && len(pod.NodeSelector) == 0
}

// ScheduleGang places all pods or none (rigid HPC jobs). Placements are
// committed virtually onto a reusable private snapshot as the gang is
// walked so members see each other's reservations; on failure nothing is
// returned. The result maps pod name to node name.
func (s *Scheduler) ScheduleGang(pods []PodInfo, nodes []NodeInfo) (map[string]string, error) {
	assignment := make(map[string]string, len(pods))
	err := s.scheduleGang(pods, nodes, func(i int, node string) {
		assignment[pods[i].Name] = node
	})
	if err != nil {
		return nil, err
	}
	return assignment, nil
}

// ScheduleGangInto is ScheduleGang without the result map: dst[i]
// receives the node for pods[i]. With a reused dst the call is
// allocation-free in steady state.
func (s *Scheduler) ScheduleGangInto(dst []string, pods []PodInfo, nodes []NodeInfo) error {
	if len(dst) != len(pods) {
		return fmt.Errorf("sched: gang destination holds %d slots for %d pods", len(dst), len(pods))
	}
	return s.scheduleGang(pods, nodes, func(i int, node string) { dst[i] = node })
}

func (s *Scheduler) scheduleGang(pods []PodInfo, nodes []NodeInfo, emit func(i int, node string)) error {
	s.stats.GangCalls++
	if s.gangSnap == nil {
		s.gangSnap = NewSnapshot()
	}
	snap := s.gangSnap
	snap.Reset()
	for i := range nodes {
		snap.AddNode(nodes[i])
	}
	// Place the largest members first: hardest to fit. Size is the
	// dominant share against the component-wise max over the gang.
	ref := resource.New(1, 1, 1, 1)
	for i := range pods {
		ref = ref.Max(pods[i].Requests)
	}
	order := s.gangOrder[:0]
	share := s.gangShare[:0]
	for i := range pods {
		f, _ := pods[i].Requests.DominantShare(ref)
		order = append(order, int32(i))
		share = append(share, f)
	}
	s.gangOrder, s.gangShare = order, share
	slices.SortStableFunc(order, func(a, b int32) int {
		if share[a] != share[b] {
			if share[a] > share[b] {
				return -1
			}
			return 1
		}
		return strings.Compare(pods[a].Name, pods[b].Name)
	})
	for _, i := range order {
		name, err := s.scheduleOn(&pods[i], snap)
		if err != nil {
			return fmt.Errorf("sched: gang of %d pods does not fit: %w", len(pods), err)
		}
		snap.Commit(name, pods[i])
		emit(int(i), name)
	}
	return nil
}

// Preemption describes a viable eviction plan for a pod.
type Preemption struct {
	Node    string
	Victims []string // pod names to evict, lowest priority first
}

// Preempt finds the node where evicting the fewest, lowest-priority pods
// (all strictly lower priority than the incoming pod) makes room. Returns
// nil when no plan exists; that path is allocation-free.
func (s *Scheduler) Preempt(pod PodInfo, nodes []NodeInfo) *Preemption {
	s.stats.Preempts++
	var best *Preemption
	bestCost := math.Inf(1)
	for i := range nodes {
		node := &nodes[i]
		victims, ok := s.planVictims(&pod, node)
		if !ok {
			continue
		}
		// Cost: total victim priority first, then count, then name.
		cost := 0.0
		for _, v := range victims {
			cost += float64(v.Priority)*1000 + 1
		}
		if cost < bestCost || (cost == bestCost && best != nil && node.Name < best.Node) {
			names := make([]string, len(victims))
			for j, v := range victims {
				names[j] = v.Name
			}
			best = &Preemption{Node: node.Name, Victims: names}
			bestCost = cost
		}
	}
	return best
}

// cmpVictim orders preemption candidates lowest priority first with a
// name tie-break.
func cmpVictim(a, b PodInfo) int {
	if a.Priority != b.Priority {
		if a.Priority < b.Priority {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Name, b.Name)
}

// planVictims greedily selects lowest-priority pods on the node until the
// incoming pod fits. Only strictly lower-priority pods are candidates.
// The returned slice aliases scheduler scratch: it is valid until the
// next planVictims call.
func (s *Scheduler) planVictims(pod *PodInfo, node *NodeInfo) ([]PodInfo, bool) {
	free := node.Free()
	candidates := s.pCand[:0]
	for i := range node.Pods {
		if node.Pods[i].Priority < pod.Priority {
			candidates = append(candidates, node.Pods[i])
		}
	}
	s.pCand = candidates
	if len(candidates) == 0 && !pod.Requests.Fits(free) {
		return nil, false
	}
	slices.SortFunc(candidates, cmpVictim)
	victims := s.pVict[:0]
	for _, v := range candidates {
		if pod.Requests.Fits(free) {
			break
		}
		free = free.Add(v.Requests)
		victims = append(victims, v)
	}
	s.pVict = victims
	if !pod.Requests.Fits(free) {
		return nil, false
	}
	// Trim victims that turned out unnecessary (greedy overshoot): try to
	// spare each one, preferring to keep the higher-priority pods (the
	// greedy pass added victims lowest-priority first, so walk backwards).
	// kept must be separate storage: appending into victims[:0] would
	// overwrite entries the backwards walk has yet to read.
	kept := s.pKept[:0]
	for i := len(victims) - 1; i >= 0; i-- {
		without := free.Sub(victims[i].Requests)
		if pod.Requests.Fits(without) {
			free = without
			continue
		}
		kept = append(kept, victims[i])
	}
	s.pKept = kept
	// Restore lowest-priority-first order for a stable, readable plan.
	slices.SortFunc(kept, cmpVictim)
	return kept, true
}
