package cluster

import "sort"

// Incremental pod/node indexes.
//
// The tick used to re-derive every sorted view it needed — pods by node,
// pods by app, the pending queue — by collecting and sorting all pod
// names, once per node per tick. That made a tick O(nodes × pods log
// pods). Instead the cluster now keeps each view sorted incrementally at
// the mutation points (create, bind, release, evict, delete), so a
// steady-state tick walks pre-sorted slices and the cost of maintaining
// them is O(changes).
//
// Invariants (checked against slow re-derivation in index_test.go):
//   - byName holds every pod in c.pods, ordered by name;
//   - byNode[n] holds exactly the pods bound to node n (p.Node == n),
//     ordered by name;
//   - byApp[a] holds exactly the live service replicas of app a (non-task
//     pods), ordered by (CreatedAt, name) — the appPods order;
//   - pending holds exactly the pods with Phase == Pending, ordered by
//     (priority desc, CreatedAt, name) — the scheduling order. While a
//     drain round runs it also keeps the entries of pods bound in the
//     round, still in order (compactPending drops them at its end);
//   - nodeList holds every node, ordered by name;
//   - appList holds every service's state, ordered by name.
//
// All ordering keys (name, app, creation time, priority) are immutable
// after pod creation, so membership changes are the only maintenance.

// byNameLess is the canonical object order.
func byNameLess(a, b *PodObject) bool { return a.Name < b.Name }

// byCreationLess orders service replicas oldest-first with a name
// tie-break; ApplyDecision scales down from the tail (newest first).
func byCreationLess(a, b *PodObject) bool {
	if a.CreatedAt != b.CreatedAt {
		return a.CreatedAt < b.CreatedAt
	}
	return a.Name < b.Name
}

// pendingLess orders the pending queue: highest priority first, then
// FIFO by creation time, then name.
func pendingLess(a, b *PodObject) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.CreatedAt != b.CreatedAt {
		return a.CreatedAt < b.CreatedAt
	}
	return a.Name < b.Name
}

// podInsert places p into the slice at its sorted position. The
// comparators above are total orders (they all tie-break on the unique
// pod name), so the position is unambiguous.
func podInsert(s []*PodObject, p *PodObject, less func(a, b *PodObject) bool) []*PodObject {
	i := sort.Search(len(s), func(j int) bool { return less(p, s[j]) })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = p
	return s
}

// podRemove deletes p from the slice, locating it by binary search.
func podRemove(s []*PodObject, p *PodObject, less func(a, b *PodObject) bool) []*PodObject {
	i := sort.Search(len(s), func(j int) bool { return !less(s[j], p) })
	if i >= len(s) || s[i] != p {
		return s
	}
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	return s[:len(s)-1]
}

// indexAddPod registers a freshly created pod (always Pending) in the
// name, app and pending indexes. Call after inserting into c.pods.
func (c *Cluster) indexAddPod(p *PodObject) {
	c.byName = podInsert(c.byName, p, byNameLess)
	if !p.IsTask() {
		c.byApp[p.App] = podInsert(c.byApp[p.App], p, byCreationLess)
		c.hotDirtyApp(p.App)
	}
	if p.Phase == Pending {
		c.pending = podInsert(c.pending, p, pendingLess)
	}
}

// indexRemovePod unregisters a pod from every index it may appear in.
// Call alongside removal from c.pods; the pod must already be released
// from its node (p.Node == "").
func (c *Cluster) indexRemovePod(p *PodObject) {
	c.byName = podRemove(c.byName, p, byNameLess)
	if !p.IsTask() {
		c.byApp[p.App] = podRemove(c.byApp[p.App], p, byCreationLess)
		c.hotDirtyApp(p.App)
	}
	c.pending = podRemove(c.pending, p, pendingLess)
}

// indexBind moves a pod from the pending queue onto its node's index.
// Call after p.Node is set. During a drain round the pending entry stays
// until the round's compaction.
func (c *Cluster) indexBind(p *PodObject) {
	if !c.draining {
		c.pending = podRemove(c.pending, p, pendingLess)
	}
	c.byNode[p.Node] = podInsert(c.byNode[p.Node], p, byNameLess)
	c.hotDirtyNode(p.Node)
	if !p.IsTask() {
		c.hotDirtyApp(p.App)
		// A replica bound with no startup delay at the last tick's
		// timestamp counts as serving then; re-materialise it.
		c.hot.usageStale = true
	}
}

// indexUnbind removes a pod from the node it was bound to. Call before
// p.Node is cleared.
func (c *Cluster) indexUnbind(p *PodObject) {
	c.byNode[p.Node] = podRemove(c.byNode[p.Node], p, byNameLess)
	c.hotDirtyNode(p.Node)
	if !p.IsTask() {
		c.hotDirtyApp(p.App)
	}
}

// indexMarkPending re-queues an evicted service replica.
func (c *Cluster) indexMarkPending(p *PodObject) {
	c.pending = podInsert(c.pending, p, pendingLess)
	c.hotDirtyApp(p.App)
}

// indexAddNode keeps nodeList name-sorted; nodes are never removed.
// The node also joins its shard's partition (stable name hash — see
// shard.go).
func (c *Cluster) indexAddNode(n *NodeObject) {
	i := sort.Search(len(c.nodeList), func(j int) bool { return c.nodeList[j].Name > n.Name })
	c.nodeList = append(c.nodeList, nil)
	copy(c.nodeList[i+1:], c.nodeList[i:])
	c.nodeList[i] = n
	c.hotAddNode(n)
	c.shards[shardOfNode(n.Name, len(c.shards))].addNode(n)
}

// indexAddApp keeps appList name-sorted; services are never removed.
// The service also joins its shard's partition.
func (c *Cluster) indexAddApp(st *appState) {
	name := st.obj.Spec.Name
	i := sort.Search(len(c.appList), func(j int) bool { return c.appList[j].obj.Spec.Name > name })
	c.appList = append(c.appList, nil)
	copy(c.appList[i+1:], c.appList[i:])
	c.appList[i] = st
	c.hotAddApp(st)
	c.shards[shardOfApp(name, len(c.shards))].addApp(st)
}
