package sched

import (
	"fmt"
	"maps"

	"evolve/internal/resource"
)

// Snapshot is a reusable scheduling view of the cluster: the node states,
// derived per-node caches (free headroom, reciprocal allocatable), and a
// score heap for the last pod class it served.
//
// A pod's class is its (App, Requests, NodeSelector): the only pod fields
// the standard filters and the fused policy kernels read, so two pods of
// one class get the same node from the same snapshot. The snapshot keeps
// one max-heap of the live entries feasible for the last class, ordered by
// (score desc, name asc) — Schedule's argmax and tie-break — and answers
// the next pod of that class with the heap top. A commit changes the score
// of only the node that received the pod, whatever the pod's class, so
// Commit rescores that one entry and restores heap order in O(log n). A
// pod of another class, or from another Scheduler, rebuilds the heap with
// one O(n) scan that also finds the argmax; the heapify waits for the
// first pod that reuses the heap, so alternating classes cost no more
// than a plain scan. Fail, Reset, AddNode and AddPod drop the heap.
// Custom plugin sets (NewCustom) may score on any pod field, so they
// rebuild on every call and never leave a heap behind.
//
// Lifecycle: Reset, AddNode (+AddPod) per node, then any mix of
// ScheduleOn / Commit / Fail. A Snapshot is not safe for concurrent
// mutation.
type Snapshot struct {
	nodes []NodeInfo
	free  []resource.Vector
	inv   []resource.Vector
	// live[e] is false once entry e has failed. byName maps live node
	// name → entry index; len(byName) is the live count.
	live   []bool
	byName map[string]int32
	// podBufs[e] is the snapshot-owned pod buffer for entry e. nodes[e].
	// Pods aliases caller memory until the first mutation (owned[e]
	// false), then points into podBufs[e].
	podBufs [][]PodInfo
	owned   []bool

	// The class heap. sch is the scheduler that scored it (nil: no heap)
	// and cls the class, with NodeSelector copied into sel so later
	// caller edits cannot change the key. heap holds exactly the live
	// entries feasible for cls; score[e] is entry e's score and hpos[e]
	// its heap position (-1 when absent). Until heaped is set only
	// heap[0] is ordered: a rebuild leaves the argmax there.
	sch    *Scheduler
	cls    PodInfo
	sel    map[string]string
	heap   []int32
	hpos   []int32
	score  []float64
	heaped bool
}

// NewSnapshot returns an empty snapshot ready for Reset/AddNode.
func NewSnapshot() *Snapshot {
	return &Snapshot{byName: make(map[string]int32)}
}

// Reset empties the snapshot, keeping its buffers for reuse.
func (sn *Snapshot) Reset() {
	sn.nodes = sn.nodes[:0]
	sn.free = sn.free[:0]
	sn.inv = sn.inv[:0]
	sn.live = sn.live[:0]
	clear(sn.byName)
	sn.owned = sn.owned[:0]
	sn.sch = nil
}

// AddNode appends a node to the snapshot. info.Pods is aliased until the
// first Commit touches the entry (copy-on-write); callers that keep
// mutating the source slice should pass a copy or use AddPod. Node names
// must be unique: a duplicate would silently shadow the earlier entry in
// byName while both stay probeable, so AddNode panics rather than corrupt
// the snapshot.
func (sn *Snapshot) AddNode(info NodeInfo) {
	if _, dup := sn.byName[info.Name]; dup {
		panic("sched: duplicate node name " + info.Name)
	}
	e := int32(len(sn.nodes))
	sn.nodes = append(sn.nodes, info)
	sn.free = append(sn.free, info.Free())
	sn.inv = append(sn.inv, invAllocatable(info.Allocatable))
	sn.live = append(sn.live, true)
	sn.byName[info.Name] = e
	sn.owned = append(sn.owned, false)
	sn.sch = nil
}

// AddPod appends a pod to the most recently added node, using
// snapshot-owned buffers (the cluster's rebuild path: AddNode with nil
// Pods, then AddPod per running pod).
func (sn *Snapshot) AddPod(p PodInfo) {
	e := len(sn.nodes) - 1
	if e < 0 {
		panic("sched: AddPod before AddNode")
	}
	sn.ensureOwned(e)
	sn.podBufs[e] = append(sn.podBufs[e], p)
	sn.nodes[e].Pods = sn.podBufs[e]
	sn.sch = nil
}

// ensureOwned moves entry e's pod list into the snapshot-owned buffer so
// it can be appended to without disturbing caller memory.
func (sn *Snapshot) ensureOwned(e int) {
	for len(sn.podBufs) <= e {
		sn.podBufs = append(sn.podBufs, nil)
	}
	if sn.owned[e] {
		return
	}
	sn.podBufs[e] = append(sn.podBufs[e][:0], sn.nodes[e].Pods...)
	sn.nodes[e].Pods = sn.podBufs[e]
	sn.owned[e] = true
}

// Commit applies a pod placement to the snapshot: allocation, headroom
// and pod list, then the class heap's entry for the node. Returns false
// when the node is unknown or failed.
func (sn *Snapshot) Commit(node string, p PodInfo) bool {
	e, ok := sn.byName[node]
	if !ok {
		return false
	}
	sn.nodes[e].Allocated = sn.nodes[e].Allocated.Add(p.Requests)
	sn.free[e] = sn.nodes[e].Free()
	sn.ensureOwned(int(e))
	sn.podBufs[e] = append(sn.podBufs[e], p)
	sn.nodes[e].Pods = sn.podBufs[e]
	if sn.sch != nil {
		sn.rescore(e)
	}
	return true
}

// Fail drains a node in place, exactly like the cluster's FailNode used
// to do on the flat snapshot: the entry keeps its name (so error totals
// and traces stay stable) but loses capacity and pods, and is never
// offered again.
func (sn *Snapshot) Fail(node string) bool {
	e, ok := sn.byName[node]
	if !ok {
		return false
	}
	delete(sn.byName, node)
	sn.nodes[e] = NodeInfo{Name: node}
	sn.free[e] = resource.Vector{}
	sn.inv[e] = resource.Vector{}
	sn.live[e] = false
	if int(e) < len(sn.podBufs) {
		sn.podBufs[e] = sn.podBufs[e][:0]
	}
	sn.owned[e] = false
	sn.sch = nil
	return true
}

// Len returns the total entry count, failed entries included — the
// denominator of "0/N nodes available" messages.
func (sn *Snapshot) Len() int { return len(sn.nodes) }

// Live returns the number of schedulable (non-failed) entries.
func (sn *Snapshot) Live() int { return len(sn.byName) }

// Nodes exposes the underlying entries (failed ones drained in place).
// The slice and its contents are owned by the snapshot: read-only,
// valid until the next Reset.
func (sn *Snapshot) Nodes() []NodeInfo { return sn.nodes }

// Lookup returns the live entry for a node name.
func (sn *Snapshot) Lookup(name string) (*NodeInfo, bool) {
	e, ok := sn.byName[name]
	if !ok {
		return nil, false
	}
	return &sn.nodes[e], true
}

// serves reports whether the cached heap answers pod for scheduler s.
func (sn *Snapshot) serves(s *Scheduler, pod *PodInfo) bool {
	return sn.sch == s && sn.cls.App == pod.App && sn.cls.Requests == pod.Requests &&
		maps.Equal(sn.cls.NodeSelector, pod.NodeSelector)
}

// rebuild scans every live entry once, keeps those feasible for pod with
// their scores, and moves the best to heap[0]; heapify orders the rest
// when the class is reused. The heap is cached for pod's class only when
// s is a built-in policy.
func (sn *Snapshot) rebuild(s *Scheduler, pod *PodInfo) {
	s.stats.Probed += uint64(sn.Live())
	sn.sch = nil
	if s.fused != nil {
		sn.sch = s
		sn.cls.App, sn.cls.Requests, sn.cls.NodeSelector = pod.App, pod.Requests, nil
		if len(pod.NodeSelector) > 0 {
			if sn.sel == nil {
				sn.sel = make(map[string]string, len(pod.NodeSelector))
			}
			clear(sn.sel)
			maps.Copy(sn.sel, pod.NodeSelector)
			sn.cls.NodeSelector = sn.sel
		}
	}
	n := len(sn.nodes)
	if cap(sn.hpos) < n {
		sn.hpos, sn.score = make([]int32, n), make([]float64, n)
	}
	hpos, score := sn.hpos[:n], sn.score[:n]
	sn.hpos, sn.score = hpos, score
	h := sn.heap[:0]
	best, bestScore := int32(-1), 0.0
	plain := s.plainProbe(pod)
	for e := range sn.nodes {
		hpos[e] = -1
		if !sn.live[e] {
			continue
		}
		node := &sn.nodes[e]
		if plain {
			if !fitsFree(&pod.Requests, &sn.free[e]) {
				continue
			}
		} else if !s.feasible(pod, node, &sn.free[e]) {
			continue
		}
		sc := s.scoreNode(pod, node, &sn.inv[e])
		score[e] = sc
		if best < 0 || sc > bestScore || (sc == bestScore && node.Name < sn.nodes[best].Name) {
			best, bestScore = int32(e), sc
		}
		hpos[e] = int32(len(h))
		h = append(h, int32(e))
	}
	sn.heap, sn.heaped = h, false
	if best >= 0 {
		sn.swap(0, int(sn.hpos[best]))
	}
}

// heapify orders the whole heap the first time a rebuilt class is reused.
func (sn *Snapshot) heapify() {
	if sn.heaped {
		return
	}
	for i := len(sn.heap)/2 - 1; i >= 0; i-- {
		sn.down(i)
	}
	sn.heaped = true
}

// rescore re-probes entry e for the cached class after a commit and
// moves it in the heap, or out of it once the class no longer fits. A
// commit only shrinks headroom, so an entry outside the heap stays out.
func (sn *Snapshot) rescore(e int32) {
	i := int(sn.hpos[e])
	if i < 0 {
		return
	}
	s := sn.sch
	s.stats.Probed++
	if !s.feasible(&sn.cls, &sn.nodes[e], &sn.free[e]) {
		last := len(sn.heap) - 1
		sn.swap(i, last)
		sn.heap = sn.heap[:last]
		sn.hpos[e] = -1
		if i < last && sn.heaped {
			sn.down(sn.up(i))
		}
		return
	}
	sn.score[e] = s.scoreNode(&sn.cls, &sn.nodes[e], &sn.inv[e])
	if sn.heaped {
		sn.down(sn.up(i))
	}
}

// before reports whether entry a ranks above entry b: higher score, then
// the lexicographically smaller name.
func (sn *Snapshot) before(a, b int32) bool {
	if sn.score[a] != sn.score[b] {
		return sn.score[a] > sn.score[b]
	}
	return sn.nodes[a].Name < sn.nodes[b].Name
}

func (sn *Snapshot) swap(i, j int) {
	h := sn.heap
	h[i], h[j] = h[j], h[i]
	sn.hpos[h[i]] = int32(i)
	sn.hpos[h[j]] = int32(j)
}

// up moves heap[i] toward the root while it ranks above its parent and
// returns its final position.
func (sn *Snapshot) up(i int) int {
	for i > 0 {
		p := (i - 1) / 2
		if !sn.before(sn.heap[i], sn.heap[p]) {
			break
		}
		sn.swap(i, p)
		i = p
	}
	return i
}

// down moves heap[i] toward the leaves while a child ranks above it.
func (sn *Snapshot) down(i int) {
	h := sn.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && sn.before(h[r], h[c]) {
			c = r
		}
		if !sn.before(h[c], h[i]) {
			return
		}
		sn.swap(i, c)
		i = c
	}
}

// CheckInvariants verifies the snapshot's internal consistency: cache
// coherence, liveness, and — when a class heap is cached — the heap
// re-derived from scratch: its members are exactly the live entries
// feasible for the class, every stored score equals a fresh kernel call
// on fresh caches, and, once heapified, the heap order holds. Test hook;
// O(nodes).
func (sn *Snapshot) CheckInvariants() error {
	for name, e := range sn.byName {
		if int(e) >= len(sn.nodes) || sn.nodes[e].Name != name {
			return fmt.Errorf("sched: byName[%s]=%d does not match entry", name, e)
		}
	}
	for e := range sn.nodes {
		want := sn.nodes[e].Free()
		if sn.free[e] != want {
			return fmt.Errorf("sched: entry %d free cache %v, want %v", e, sn.free[e], want)
		}
		_, live := sn.byName[sn.nodes[e].Name]
		if live != sn.live[e] {
			return fmt.Errorf("sched: entry %d (%s) live flag %v, byName says %v", e, sn.nodes[e].Name, sn.live[e], live)
		}
		if !live {
			continue
		}
		if want := invAllocatable(sn.nodes[e].Allocatable); sn.inv[e] != want {
			return fmt.Errorf("sched: entry %d inv cache %v, want %v", e, sn.inv[e], want)
		}
		// invAllocatable precondition: no allocation on a zero-capacity
		// dimension, or fused and plugin-chain scores diverge.
		for k := range sn.nodes[e].Allocatable {
			if sn.nodes[e].Allocatable[k] == 0 && sn.nodes[e].Allocated[k] > 0 {
				return fmt.Errorf("sched: entry %d (%s) allocated %v of zero-capacity kind %d",
					e, sn.nodes[e].Name, sn.nodes[e].Allocated[k], k)
			}
		}
	}
	if sn.sch == nil {
		return nil
	}
	members := 0
	for e := range sn.nodes {
		node := &sn.nodes[e]
		free, inv := node.Free(), invAllocatable(node.Allocatable)
		fits := sn.live[e] && sn.sch.feasible(&sn.cls, node, &free)
		in := sn.hpos[e] >= 0
		if fits != in {
			return fmt.Errorf("sched: entry %d (%s) feasible=%v but in heap=%v", e, node.Name, fits, in)
		}
		if !in {
			continue
		}
		members++
		if i := sn.hpos[e]; int(i) >= len(sn.heap) || sn.heap[i] != int32(e) {
			return fmt.Errorf("sched: hpos[%d]=%d does not point back at entry %d", e, i, e)
		}
		if want := sn.sch.scoreNode(&sn.cls, node, &inv); sn.score[e] != want {
			return fmt.Errorf("sched: entry %d (%s) cached score %v, kernel gives %v", e, node.Name, sn.score[e], want)
		}
	}
	if members != len(sn.heap) {
		return fmt.Errorf("sched: heap holds %d entries, %d are feasible", len(sn.heap), members)
	}
	for i := 1; sn.heaped && i < len(sn.heap); i++ {
		if p := (i - 1) / 2; sn.before(sn.heap[i], sn.heap[p]) {
			return fmt.Errorf("sched: heap order violated at %d: %s above parent %s",
				i, sn.nodes[sn.heap[i]].Name, sn.nodes[sn.heap[p]].Name)
		}
	}
	return nil
}
