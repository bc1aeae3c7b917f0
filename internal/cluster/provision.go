package cluster

import (
	"fmt"
	"sort"

	"evolve/internal/resource"
	"evolve/internal/sim"
)

// Bulk provisioning.
//
// The incremental mutation paths (AddNode, CreateService + scheduling)
// keep every index sorted per insert — exactly right for the steady
// state, quadratic when standing up a 100k-node, million-pod topology
// before the clock starts. ProvisionBulk is the setup-time alternative:
// append everything, sort each index once, and bring service replicas
// up already bound — round-robin over the ready nodes from a stable
// per-service offset — so no scheduling round has to place a million
// pods one by one. The resulting indexes satisfy the same invariants as
// the incremental paths (index.go); index_test.go's checker does not
// care how they were built.

// Provision describes a topology to stand up in one pass: a block of
// identical nodes plus services whose replicas come up already placed
// and serving.
type Provision struct {
	// NodePrefix/Nodes/NodeCapacity add Nodes identical nodes named
	// prefix-0..prefix-N-1 (Nodes may be 0 to reuse existing topology).
	NodePrefix   string
	Nodes        int
	NodeCapacity resource.Vector
	// Services are deployed with InitialReplicas replicas each, bound
	// round-robin over the ready nodes starting at a stable per-service
	// offset. Replicas that fit nowhere stay pending.
	Services []ServiceSpec
}

// ProvisionBulk stands the topology up before the simulation starts.
// Setup-time only: it refuses to run once Start has armed the tick.
// Unlike the incremental paths it journals no per-object events; an
// enabled tracer still records every object as added. Every check runs
// before the first mutation, so a refused call leaves the cluster as it
// was.
func (c *Cluster) ProvisionBulk(p Provision) error {
	if c.started {
		return fmt.Errorf("cluster: ProvisionBulk after Start")
	}
	if p.Nodes > 0 && (!p.NodeCapacity.NonNegative() || p.NodeCapacity.IsZero()) {
		return fmt.Errorf("cluster: ProvisionBulk node capacity %v invalid", p.NodeCapacity)
	}
	listed := make(map[string]bool, len(p.Services))
	seq := c.podSeq
	for _, spec := range p.Services {
		if err := spec.Validate(); err != nil {
			return err
		}
		if _, ok := c.apps[spec.Name]; ok {
			return fmt.Errorf("cluster: service %s already exists", spec.Name)
		}
		if listed[spec.Name] {
			return fmt.Errorf("cluster: service %s listed twice", spec.Name)
		}
		listed[spec.Name] = true
		// Replica names come from podSeq; only a task pod submitted
		// earlier can already hold one.
		for i := 0; i < spec.InitialReplicas && len(c.pods) > 0; i++ {
			seq++
			if name := podName(spec.Name, seq); c.pods[name] != nil {
				return fmt.Errorf("cluster: pod %s already exists", name)
			}
		}
	}

	// Nodes: append, sort once, rebuild the shard partitions in order.
	//
	// The per-tick phase loops walk each shard's nodes in name order, so
	// the batch is laid out shard-major (name order within each shard) in
	// one backing array, and dense hot-state slots are assigned in the
	// same order: every shard's P1/P3 pass then streams a contiguous
	// block of both the NodeObject heap and hot.slow instead of striding
	// hash-scattered entries across the whole topology — at 8 shards over
	// 100k nodes the strided walk re-touches nearly every cache line once
	// per shard per tick. Creation order, indexes and object versions
	// are unchanged: layout is pure storage placement, invisible to
	// replay.
	if p.Nodes > 0 {
		names := make([]string, p.Nodes)
		for i := range names {
			names[i] = fmt.Sprintf("%s-%d", p.NodePrefix, i)
			if _, ok := c.nodes[names[i]]; ok {
				return fmt.Errorf("cluster: node %s already exists", names[i])
			}
		}
		pos := provisionLayout(names, len(c.shards))
		backing := make([]NodeObject, p.Nodes)
		slotBase := len(c.hot.slow)
		for i := 0; i < p.Nodes; i++ {
			c.hot.slow = append(c.hot.slow, 1)
		}
		for i := 0; i < p.Nodes; i++ {
			n := &backing[pos[i]]
			*n = NodeObject{
				Meta:        Meta{Kind: KindNode, Name: names[i]},
				Capacity:    p.NodeCapacity,
				Allocatable: p.NodeCapacity.Scale(0.94),
				Ready:       true,
				slot:        int32(slotBase + pos[i]),
			}
			c.create(&n.Meta)
			c.nodes[names[i]] = n
			c.nodeList = append(c.nodeList, n)
		}
		sort.Slice(c.nodeList, func(i, j int) bool { return c.nodeList[i].Name < c.nodeList[j].Name })
		c.reshardNodes()
	}

	ready := make([]*NodeObject, 0, len(c.nodeList))
	for _, n := range c.nodeList {
		if n.Ready {
			ready = append(ready, n)
		}
	}

	now := c.now()
	touchedNodes := make(map[string]struct{})
	var placed, unplaced uint64
	for _, spec := range p.Services {
		obj := &AppObject{
			Meta:            Meta{Kind: KindApp, Name: spec.Name},
			Spec:            spec,
			DesiredReplicas: spec.InitialReplicas,
			Alloc:           spec.InitialAlloc,
		}
		c.create(&obj.Meta)
		st := c.newAppState(obj)
		c.apps[spec.Name] = st
		c.appList = append(c.appList, st)
		c.hotAddApp(st)

		// Stable start offset: each service begins its round-robin at a
		// hash of its own name, so placement spreads services across the
		// fleet and never depends on deployment order.
		cursor := 0
		if len(ready) > 0 {
			cursor = sim.ShardOf("place/"+spec.Name, len(ready))
		}
		for i := 0; i < spec.InitialReplicas; i++ {
			pod := &PodObject{
				Meta:      Meta{Kind: KindPod, Name: c.nextPodName(spec.Name)},
				App:       spec.Name,
				Phase:     Pending,
				Requests:  obj.Alloc,
				Priority:  spec.Priority,
				CreatedAt: now,
			}
			if n := nextFit(ready, cursor, pod.Requests); n != nil {
				pod.Phase = Running
				pod.Node = n.Name
				pod.BoundAt = now
				pod.ReadyAt = now // provisioned replicas come up serving
				n.Allocated = n.Allocated.Add(pod.Requests)
				touchedNodes[n.Name] = struct{}{}
				placed++
			} else {
				unplaced++
			}
			cursor++
			c.create(&pod.Meta)
			c.pods[pod.Name] = pod
			c.byName = append(c.byName, pod)
			c.byApp[spec.Name] = append(c.byApp[spec.Name], pod)
			if pod.Node != "" {
				c.byNode[pod.Node] = append(c.byNode[pod.Node], pod)
			} else {
				c.pending = append(c.pending, pod)
			}
		}
		sort.Slice(c.byApp[spec.Name], func(i, j int) bool {
			s := c.byApp[spec.Name]
			return byCreationLess(s[i], s[j])
		})
	}

	// One sort per index restores the invariants of index.go.
	if len(p.Services) > 0 {
		sort.Slice(c.appList, func(i, j int) bool { return c.appList[i].obj.Spec.Name < c.appList[j].obj.Spec.Name })
		c.reshardApps()
		sort.Slice(c.byName, func(i, j int) bool { return byNameLess(c.byName[i], c.byName[j]) })
		sort.Slice(c.pending, func(i, j int) bool { return pendingLess(c.pending[i], c.pending[j]) })
		for name := range touchedNodes {
			s := c.byNode[name]
			sort.Slice(s, func(i, j int) bool { return byNameLess(s[i], s[j]) })
		}
	}
	c.met.Counter("provision/pods").Add(placed)
	c.met.Counter("provision/unplaced").Add(unplaced)
	return nil
}

// nextFit returns the first ready node at or after cursor (wrapping)
// with headroom for req, or nil when none fits.
func nextFit(ready []*NodeObject, cursor int, req resource.Vector) *NodeObject {
	for k := 0; k < len(ready); k++ {
		n := ready[(cursor+k)%len(ready)]
		if fits(req, n.Free()) {
			return n
		}
	}
	return nil
}

func fits(req, free resource.Vector) bool {
	for _, k := range resource.Kinds() {
		if req[k] > free[k] {
			return false
		}
	}
	return true
}

// provisionLayout returns each node's position in a shard-major layout:
// shard 0's nodes first (in name order, matching the phase loops), then
// shard 1's, and so on. With nshards <= 1 the layout is plain name
// order — the nodeList walk.
func provisionLayout(names []string, nshards int) []int {
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })
	pos := make([]int, len(names))
	if nshards <= 1 {
		for k, i := range order {
			pos[i] = k
		}
		return pos
	}
	buckets := make([][]int, nshards)
	for _, i := range order {
		s := shardOfNode(names[i], nshards)
		buckets[s] = append(buckets[s], i)
	}
	k := 0
	for _, b := range buckets {
		for _, i := range b {
			pos[i] = k
			k++
		}
	}
	return pos
}

// reshardNodes rebuilds every shard's node partition from the sorted
// nodeList; appending in list order keeps each partition sorted.
func (c *Cluster) reshardNodes() {
	for _, sh := range c.shards {
		sh.nodes = sh.nodes[:0]
	}
	for _, n := range c.nodeList {
		sh := c.shards[shardOfNode(n.Name, len(c.shards))]
		sh.nodes = append(sh.nodes, n)
	}
}

// reshardApps rebuilds every shard's app partition from the sorted
// appList.
func (c *Cluster) reshardApps() {
	for _, sh := range c.shards {
		sh.apps = sh.apps[:0]
	}
	for _, st := range c.appList {
		sh := c.shards[shardOfApp(st.obj.Spec.Name, len(c.shards))]
		sh.apps = append(sh.apps, st)
	}
}
