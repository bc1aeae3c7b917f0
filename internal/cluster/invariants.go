package cluster

import (
	"fmt"
	"time"

	"evolve/internal/resource"
)

// CheckInvariants re-derives the tick's dense state from the object
// graph — the byApp/byNode indexes and the pods themselves — and
// returns the first mismatch, naming the cache or field that disagrees.
// It is the oracle the single tick path is tested against: the dense
// caches must hold exactly what a walk of the graph would compute, bit
// for bit. Checked, at any event boundary:
//
//   - every appRunCache that is not stale (ok, horizon still ahead):
//     its node slots, summed requests, ready count and horizon;
//   - every such nodePodCache: its entries, task pointers, running
//     count and horizon;
//   - hot.slow: one slot per node, each holding the slowdown of the
//     node's current usage;
//   - node Allocated (the bound pods' requests, up to add/sub rounding)
//     and, while the node's pod set is unchanged since the last tick,
//     node Usage (the last tick's per-pod usage summed in byNode order);
//   - hot.appUsage against the last usage sample the app recorded, and
//     per-pod usage as syncPodUsage materialises it: the app's usage on
//     replicas serving at the last tick, zero elsewhere, the full grant
//     on running tasks;
//   - the pod indexes (index.go), re-derived from the pod map: byName,
//     each node's byNode and each service's byApp hold exactly the live
//     pods they should, strictly in their order (so free of duplicates);
//     the pending queue exactly the live Pending pods, strictly in
//     scheduling order.
//
// Test and soak hook: read-only, O(pods + nodes), allocates.
func (c *Cluster) CheckInvariants() error {
	now := c.now()
	// byName holds exactly the pods of the pod map, strictly in name
	// order, each at a version the cluster has issued, bound only to
	// known nodes (and bound if running) and, for service replicas,
	// owned by a known service. The walk counts what the other indexes
	// must hold: each service's replicas, each node's bound pods and the
	// Pending pods.
	if len(c.byName) != len(c.pods) {
		return fmt.Errorf("cluster: byName indexes %d pods, the pod map holds %d", len(c.byName), len(c.pods))
	}
	replicas := make(map[string]int, len(c.appList))
	bound := make(map[string]int, len(c.nodeList))
	pending := 0
	for i, p := range c.byName {
		if c.pods[p.Name] != p {
			return fmt.Errorf("cluster: pod %s indexed but not in the pod map", p.Name)
		}
		if i > 0 && !byNameLess(c.byName[i-1], p) {
			return fmt.Errorf("cluster: byName[%d] %s does not sort after %s", i, p.Name, c.byName[i-1].Name)
		}
		if p.ResourceVersion == 0 || p.ResourceVersion > c.version {
			return fmt.Errorf("cluster: pod %s has version %d, the cluster is at %d", p.Name, p.ResourceVersion, c.version)
		}
		if !p.IsTask() {
			if _, ok := c.apps[p.App]; !ok {
				return fmt.Errorf("cluster: pod %s belongs to unknown service %s", p.Name, p.App)
			}
			replicas[p.App]++
		}
		if _, ok := c.nodes[p.Node]; !ok && (p.Node != "" || p.Phase == Running) {
			return fmt.Errorf("cluster: pod %s (phase %v) bound to unknown node %q", p.Name, p.Phase, p.Node)
		}
		if p.Node != "" {
			bound[p.Node]++
		}
		if p.Phase == Pending {
			pending++
		}
	}
	h := &c.hot
	if len(h.slow) != len(c.nodeList) {
		return fmt.Errorf("cluster: hot.slow has %d slots for %d nodes", len(h.slow), len(c.nodeList))
	}
	slotOwner := make([]*NodeObject, len(h.slow))
	for _, n := range c.nodeList {
		if n.slot < 0 || int(n.slot) >= len(h.slow) || slotOwner[n.slot] != nil {
			return fmt.Errorf("cluster: node %s: slot %d out of range or shared", n.Name, n.slot)
		}
		slotOwner[n.slot] = n
		if want := c.nodeSlowdown(n); h.slow[n.slot] != want {
			return fmt.Errorf("cluster: node %s: hot.slow[%d] = %v, its usage gives %v", n.Name, n.slot, h.slow[n.slot], want)
		}
		if err := c.checkNode(n, now, bound[n.Name]); err != nil {
			return err
		}
	}
	if len(h.appUsage) != len(c.appList) {
		return fmt.Errorf("cluster: hot.appUsage has %d entries for %d services", len(h.appUsage), len(c.appList))
	}
	idxOwner := make([]*appState, len(h.appUsage))
	for _, st := range c.appList {
		if st.hotIdx < 0 || int(st.hotIdx) >= len(h.appUsage) || idxOwner[st.hotIdx] != nil {
			return fmt.Errorf("cluster: service %s: hot index %d out of range or shared", st.obj.Spec.Name, st.hotIdx)
		}
		idxOwner[st.hotIdx] = st
		if err := c.checkApp(st, now, replicas[st.obj.Spec.Name]); err != nil {
			return err
		}
	}
	return c.checkPending(pending)
}

// checkPending re-derives the pending queue: every entry a live Pending
// pod, each strictly after the one before, and want entries, as many as
// there are Pending pods.
func (c *Cluster) checkPending(want int) error {
	for i, p := range c.pending {
		if p.Phase != Pending || c.pods[p.Name] != p {
			return fmt.Errorf("cluster: pending[%d] is %s, phase %v, live %v", i, p.Name, p.Phase, c.pods[p.Name] == p)
		}
		if i > 0 && !pendingLess(c.pending[i-1], p) {
			return fmt.Errorf("cluster: pending[%d] %s does not sort after %s", i, p.Name, c.pending[i-1].Name)
		}
	}
	if len(c.pending) != want {
		return fmt.Errorf("cluster: pending queue holds %d pods, %d are Pending", len(c.pending), want)
	}
	return nil
}

// servedUsage is the usage a service replica carries as syncPodUsage
// materialises it: its app's last evaluated usage if it was running and
// ready at the last tick's P2, zero otherwise.
func (c *Cluster) servedUsage(st *appState, p *PodObject) resource.Vector {
	if p.Phase == Running && p.ReadyAt <= c.hot.lastPhaseAt {
		return c.hot.appUsage[st.hotIdx]
	}
	return resource.Vector{}
}

// checkNode verifies one node's pod index, which must hold its bound
// live pods, its accounting and, when they are live, its pod cache and
// usage.
func (c *Cluster) checkNode(n *NodeObject, now time.Duration, bound int) error {
	var alloc, usage resource.Vector
	var entries []int32
	var tasks []*PodObject
	running := 0
	horizon := farFuture
	pods := c.byNode[n.Name]
	if len(pods) != bound {
		return fmt.Errorf("cluster: byNode[%s] holds %d pods, %d are bound to it", n.Name, len(pods), bound)
	}
	for i, p := range pods {
		if p.Node != n.Name || p.Phase != Running || c.pods[p.Name] != p {
			return fmt.Errorf("cluster: node %s indexes pod %s (node %q, phase %v, live %v)", n.Name, p.Name, p.Node, p.Phase, c.pods[p.Name] == p)
		}
		if i > 0 && !byNameLess(pods[i-1], p) {
			return fmt.Errorf("cluster: byNode[%s][%d] %s does not sort after %s", n.Name, i, p.Name, pods[i-1].Name)
		}
		if !n.Ready {
			return fmt.Errorf("cluster: unready node %s hosts pod %s", n.Name, p.Name)
		}
		alloc = alloc.Add(p.Requests)
		running++
		if p.IsTask() {
			if p.Usage != p.Requests {
				return fmt.Errorf("cluster: task %s: Usage %v, want its grant %v", p.Name, p.Usage, p.Requests)
			}
			usage = usage.Add(p.Usage)
			entries = append(entries, int32(-len(tasks)-1))
			tasks = append(tasks, p)
			continue
		}
		st := c.apps[p.App]
		if p.ReadyAt <= c.hot.lastPhaseAt {
			usage = usage.Add(c.servedUsage(st, p))
		}
		if p.ReadyAt > now {
			if p.ReadyAt < horizon {
				horizon = p.ReadyAt
			}
			continue
		}
		entries = append(entries, st.hotIdx)
	}
	for _, k := range resource.Kinds() {
		tol := 1e-9 * (1 + alloc[k]) // Allocated accumulates add/sub rounding
		if d := n.Allocated[k] - alloc[k]; d > tol || d < -tol {
			return fmt.Errorf("cluster: node %s: Allocated[%v] = %v, bound pods request %v", n.Name, k, n.Allocated[k], alloc[k])
		}
		if n.Allocated[k] > n.Allocatable[k]*(1+1e-9) {
			return fmt.Errorf("cluster: node %s over-allocated on %v: %v > %v", n.Name, k, n.Allocated[k], n.Allocatable[k])
		}
	}
	pc := &n.pc
	if !pc.ok {
		// Bound or unbound since the last tick: Usage lags until the next
		// P3, and the cache rebuilds there.
		return nil
	}
	if n.Usage != usage {
		return fmt.Errorf("cluster: node %s: Usage %v, its pods sum to %v", n.Name, n.Usage, usage)
	}
	if pc.horizon <= now {
		return nil // readiness moved; the next P3 rebuilds
	}
	if pc.running != running || pc.horizon != horizon {
		return fmt.Errorf("cluster: node %s: pc.running %d horizon %v, want %d, %v", n.Name, pc.running, pc.horizon, running, horizon)
	}
	if len(pc.entries) != len(entries) || len(pc.tasks) != len(tasks) {
		return fmt.Errorf("cluster: node %s: pc.entries %v, want %v", n.Name, pc.entries, entries)
	}
	for i := range entries {
		if pc.entries[i] != entries[i] {
			return fmt.Errorf("cluster: node %s: pc.entries %v, want %v", n.Name, pc.entries, entries)
		}
	}
	for i := range tasks {
		if pc.tasks[i] != tasks[i] {
			return fmt.Errorf("cluster: node %s: pc.tasks[%d] is %s, want %s", n.Name, i, pc.tasks[i].Name, tasks[i].Name)
		}
	}
	return nil
}

// checkApp verifies one service's replica index, which must hold its
// replicas live replicas, its dense usage, its replicas' usage and, when
// it is live, its run cache.
func (c *Cluster) checkApp(st *appState, now time.Duration, replicas int) error {
	name := st.obj.Spec.Name
	h := &c.hot
	if st.h.frame != nil {
		for _, k := range resource.Kinds() {
			if s, ok := st.h.frame.Column(colUsage + int(k)).Last(); ok && s.At == h.lastPhaseAt && h.appUsage[st.hotIdx][k] != s.Value {
				return fmt.Errorf("cluster: service %s: hot.appUsage[%v] = %v, last tick recorded %v", name, k, h.appUsage[st.hotIdx][k], s.Value)
			}
		}
	}
	var slots []int32
	var alloc resource.Vector
	horizon := farFuture
	pods := c.byApp[name]
	if len(pods) != replicas {
		return fmt.Errorf("cluster: byApp[%s] holds %d pods, the service has %d replicas", name, len(pods), replicas)
	}
	for i, p := range pods {
		if p.App != name || p.IsTask() || c.pods[p.Name] != p {
			return fmt.Errorf("cluster: service %s indexes pod %s (app %q, live %v)", name, p.Name, p.App, c.pods[p.Name] == p)
		}
		if i > 0 && !byCreationLess(pods[i-1], p) {
			return fmt.Errorf("cluster: byApp[%s][%d] %s does not sort after %s", name, i, p.Name, pods[i-1].Name)
		}
		if p.Phase != Running {
			if !p.Usage.IsZero() {
				return fmt.Errorf("cluster: pod %s: Usage %v while %v", p.Name, p.Usage, p.Phase)
			}
			continue
		}
		if !h.usageStale {
			if want := c.servedUsage(st, p); p.Usage != want {
				return fmt.Errorf("cluster: pod %s: Usage %v, want %v", p.Name, p.Usage, want)
			}
		}
		if p.ReadyAt > now {
			if p.ReadyAt < horizon {
				horizon = p.ReadyAt
			}
			continue
		}
		slots = append(slots, c.nodes[p.Node].slot)
		alloc = alloc.Add(p.Requests)
	}
	rc := &st.rc
	if !rc.ok || rc.horizon <= now {
		return nil // stale: the next P2 rebuilds it
	}
	if rc.ready != len(slots) || rc.horizon != horizon {
		return fmt.Errorf("cluster: service %s: rc.ready %d horizon %v, want %d, %v", name, rc.ready, rc.horizon, len(slots), horizon)
	}
	if rc.alloc != alloc {
		return fmt.Errorf("cluster: service %s: rc.alloc %v, ready replicas request %v", name, rc.alloc, alloc)
	}
	if len(rc.slots) != len(slots) {
		return fmt.Errorf("cluster: service %s: rc.slots %v, want %v", name, rc.slots, slots)
	}
	for i := range slots {
		if rc.slots[i] != slots[i] {
			return fmt.Errorf("cluster: service %s: rc.slots %v, want %v", name, rc.slots, slots)
		}
	}
	return nil
}
