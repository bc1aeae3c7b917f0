package sched

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"evolve/internal/resource"
)

// randNode builds a node with randomized free capacity in every
// dimension, occasionally labeled.
func randNode(rng *rand.Rand, i int) NodeInfo {
	n := NodeInfo{
		Name:        fmt.Sprintf("node-%03d", i),
		Allocatable: resource.New(16000, 64<<30, 1e9, 2e9),
	}
	n.Allocated = n.Allocatable.Scale(rng.Float64() * 0.9)
	// Skew one random dimension so no single kind dominates the index.
	k := rng.Intn(int(resource.NumKinds))
	n.Allocated[k] = n.Allocatable[k] * rng.Float64()
	if rng.Intn(4) == 0 {
		n.Labels = map[string]string{"pool": "hpc"}
	}
	return n
}

// randPod builds a pod with randomized requests; some oversized, some
// selector-bearing, so both failure modes are exercised.
func randPod(rng *rand.Rand, i int) PodInfo {
	p := PodInfo{
		Name: fmt.Sprintf("pod-%04d", i),
		App:  fmt.Sprintf("app-%d", rng.Intn(5)),
		Requests: resource.New(
			float64(rng.Intn(4000)+100),
			float64(rng.Intn(8)+1)*(1<<30),
			float64(rng.Intn(40)+1)*1e6,
			float64(rng.Intn(40)+1)*1e6,
		),
	}
	if rng.Intn(10) == 0 { // oversized: usually unschedulable
		p.Requests = p.Requests.Scale(50)
	}
	if rng.Intn(8) == 0 {
		p.NodeSelector = map[string]string{"pool": "hpc"}
	}
	return p
}

// TestSnapshotEquivalence drives a snapshot and a plain mirror slice
// through the same randomized bind/fail sequence and demands identical
// decisions from ScheduleOn (class heap) and Schedule (brute force) at
// every step — the heap must never hide a feasible node or change the
// winner.
func TestSnapshotEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, policy := range []Policy{PolicySpread, PolicyBinPack} {
			t.Run(fmt.Sprintf("seed=%d/policy=%d", seed, policy), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				indexed, brute := New(policy), New(policy)
				snap := NewSnapshot()
				var mirror []NodeInfo
				snap.Reset()
				for i := 0; i < 60; i++ {
					n := randNode(rng, i)
					snap.AddNode(n)
					mirror = append(mirror, n)
				}
				for i := 0; i < 400; i++ {
					if rng.Intn(25) == 0 && snap.Live() > 2 {
						// Fail a random live node in both views.
						victim := mirror[rng.Intn(len(mirror))].Name
						if _, live := snap.byName[victim]; live {
							snap.Fail(victim)
							for j := range mirror {
								if mirror[j].Name == victim {
									mirror[j] = NodeInfo{Name: victim}
								}
							}
						}
					}
					p := randPod(rng, i)
					got, errIdx := indexed.ScheduleOn(p, snap)
					want, errBrute := brute.Schedule(p, mirror)
					if (errIdx == nil) != (errBrute == nil) {
						t.Fatalf("step %d: index err=%v, brute err=%v", i, errIdx, errBrute)
					}
					if got != want {
						t.Fatalf("step %d: index chose %q, brute chose %q", i, got, want)
					}
					if errIdx != nil {
						continue
					}
					if !snap.Commit(got, p) {
						t.Fatalf("step %d: commit to %q failed", i, got)
					}
					for j := range mirror {
						if mirror[j].Name == got {
							mirror[j].Allocated = mirror[j].Allocated.Add(p.Requests)
							mirror[j].Pods = append(mirror[j].Pods, p)
						}
					}
					if err := snap.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
			})
		}
	}
}

// TestSnapshotHeapMatchesBruteForce is the independent spec of the class
// heap: over random worlds it interleaves runs of same-class pods (the
// reuse path), commits of pods from other classes straight into the
// snapshot (the rescore-any-class path), node failures and selector-
// bearing pods, for both policies and a custom plugin set, and demands
// at every step that ScheduleOn agrees with a brute-force Schedule over a
// mirror and that CheckInvariants re-derives the cached heap.
func TestSnapshotHeapMatchesBruteForce(t *testing.T) {
	custom, err := NewCustom([]FilterPlugin{SelectorFilter{}, FitFilter{}},
		[]ScorePlugin{LeastAllocated{W: 2}, BalancedAllocation{W: 1}, AppSpread{W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, mk := range []struct {
			name string
			s    func() *Scheduler
		}{
			{"spread", func() *Scheduler { return New(PolicySpread) }},
			{"binpack", func() *Scheduler { return New(PolicyBinPack) }},
			{"custom", func() *Scheduler { return custom }},
		} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, mk.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(100 + seed))
				heaped, brute := mk.s(), mk.s()
				heaped.ResetStats()
				snap := NewSnapshot()
				var mirror []NodeInfo
				for i := 0; i < 50; i++ {
					n := randNode(rng, i)
					snap.AddNode(n)
					mirror = append(mirror, n)
				}
				commit := func(node string, p PodInfo) {
					if !snap.Commit(node, p) {
						t.Fatalf("commit of %s to %q refused", p.Name, node)
					}
					for j := range mirror {
						if mirror[j].Name == node {
							mirror[j].Allocated = mirror[j].Allocated.Add(p.Requests)
							mirror[j].Pods = append(mirror[j].Pods, p)
						}
					}
				}
				step := 0
				var class PodInfo
				for run := 0; run < 60; run++ {
					switch rng.Intn(6) {
					case 0: // a node fails
						victim := mirror[rng.Intn(len(mirror))].Name
						if snap.Fail(victim) {
							for j := range mirror {
								if mirror[j].Name == victim {
									mirror[j] = NodeInfo{Name: victim}
								}
							}
						}
					case 1: // a pod of another class lands on a random live node
						live := mirror[rng.Intn(len(mirror))]
						if _, ok := snap.Lookup(live.Name); ok {
							p := randPod(rng, 10000+run)
							p.Requests = p.Requests.Scale(0.2)
							commit(live.Name, p)
						}
					}
					// A run of same-class replicas, each placed and committed.
					// A third of the runs continue the previous class, so the
					// cached heap must have absorbed the failure or the other
					// class's commit above; half of those flip its selector,
					// which makes it a different class.
					prev := class
					class = randPod(rng, run)
					if run > 0 && rng.Intn(3) == 0 {
						class = prev
						if rng.Intn(2) == 0 {
							if class.NodeSelector == nil {
								class.NodeSelector = map[string]string{"pool": "hpc"}
							} else {
								class.NodeSelector = nil
							}
						}
					}
					for r := rng.Intn(12) + 1; r > 0; r-- {
						step++
						p := class
						p.Name = fmt.Sprintf("%s-r%d", class.Name, r)
						got, errHeap := heaped.ScheduleOn(p, snap)
						want, errBrute := brute.Schedule(p, liveOnly(mirror))
						if (errHeap == nil) != (errBrute == nil) || got != want {
							t.Fatalf("step %d: heap chose %q (err %v), brute chose %q (err %v)",
								step, got, errHeap, want, errBrute)
						}
						if err := snap.CheckInvariants(); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						if errHeap != nil {
							break
						}
						commit(got, p)
						if err := snap.CheckInvariants(); err != nil {
							t.Fatalf("step %d after commit: %v", step, err)
						}
					}
				}
				st := heaped.Stats()
				if mk.name == "custom" {
					if st.Reused != 0 {
						t.Errorf("custom plugin set reused a heap %d times", st.Reused)
					}
				} else if st.Reused == 0 {
					t.Errorf("no call reused a heap over %d placements", st.Calls)
				}
			})
		}
	}
}

// TestSnapshotHeapKeyedByScheduler: a heap one policy built must not
// answer the same pod for another policy sharing the snapshot.
func TestSnapshotHeapKeyedByScheduler(t *testing.T) {
	snap := NewSnapshot()
	snap.AddNode(node("empty", 4000, 0))
	snap.AddNode(node("busy", 4000, 3000))
	p := pod("p", 500)
	for _, c := range []struct {
		s    *Scheduler
		want string
	}{{New(PolicySpread), "empty"}, {New(PolicyBinPack), "busy"}, {New(PolicySpread), "empty"}} {
		if got, err := c.s.ScheduleOn(p, snap); err != nil || got != c.want {
			t.Fatalf("ScheduleOn = %q, %v; want %q", got, err, c.want)
		}
	}
}

// liveOnly drops failed (capacity-less) mirror entries: the snapshot
// never offers a failed node, even to a pod that requests nothing.
func liveOnly(nodes []NodeInfo) []NodeInfo {
	out := make([]NodeInfo, 0, len(nodes))
	for _, n := range nodes {
		if n.Allocatable != (resource.Vector{}) {
			out = append(out, n)
		}
	}
	return out
}

// TestSnapshotCheckInvariantsCatchesHeapCorruption: each way the cached
// heap can go wrong — a stale score, a broken order, a feasible node
// missing, an infeasible node present — must be reported.
func TestSnapshotCheckInvariantsCatchesHeapCorruption(t *testing.T) {
	build := func() (*Snapshot, *Scheduler) {
		s := New(PolicySpread)
		snap := NewSnapshot()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 20; i++ {
			snap.AddNode(randNode(rng, i))
		}
		// The second call reuses the heap, which orders all of it.
		for i := 0; i < 2; i++ {
			if _, err := s.ScheduleOn(pod("p", 500), snap); err != nil {
				t.Fatal(err)
			}
		}
		if err := snap.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return snap, s
	}
	for _, c := range []struct {
		name    string
		corrupt func(sn *Snapshot)
		want    string
	}{
		{"stale score", func(sn *Snapshot) { sn.score[sn.heap[len(sn.heap)-1]] -= 1e-9 }, "cached score"},
		{"order", func(sn *Snapshot) { sn.swap(0, len(sn.heap)-1) }, "heap order"},
		{"missing member", func(sn *Snapshot) {
			e := sn.heap[len(sn.heap)-1]
			sn.heap = sn.heap[:len(sn.heap)-1]
			sn.hpos[e] = -1
		}, "in heap=false"},
		{"infeasible member", func(sn *Snapshot) {
			e := sn.heap[0]
			sn.nodes[e].Allocated = sn.nodes[e].Allocatable
			sn.free[e] = resource.Vector{}
		}, "in heap=true"},
	} {
		t.Run(c.name, func(t *testing.T) {
			snap, _ := build()
			c.corrupt(snap)
			err := snap.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("CheckInvariants = %v, want an error naming %q", err, c.want)
			}
		})
	}
}

// TestAddNodeDuplicatePanics: a duplicate node name would corrupt the
// byName↔order correspondence, so AddNode must refuse it loudly.
func TestAddNodeDuplicatePanics(t *testing.T) {
	snap := NewSnapshot()
	snap.Reset()
	snap.AddNode(NodeInfo{Name: "node-a", Allocatable: resource.New(1, 1, 1, 1)})
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode accepted a duplicate node name")
		}
	}()
	snap.AddNode(NodeInfo{Name: "node-a", Allocatable: resource.New(2, 2, 2, 2)})
}

// TestFusedScoreMatchesPlugins: the fused kernels must agree with the
// generic plugin chain they replace (up to float re-association from the
// cached reciprocal).
func TestFusedScoreMatchesPlugins(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, policy := range []Policy{PolicySpread, PolicyBinPack} {
		s := New(policy)
		for i := 0; i < 200; i++ {
			n := randNode(rng, i)
			n.Pods = []PodInfo{{App: "app-1"}, {App: "app-2"}}
			p := randPod(rng, i)
			inv := invAllocatable(n.Allocatable)
			fused := s.fused(&p, &n, &inv)
			var generic float64
			for j, sc := range s.scorers {
				generic += s.weights[j] * sc.Score(&p, &n)
			}
			generic /= s.wsum
			if diff := fused - generic; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("policy %d node %d: fused %v vs plugins %v", policy, i, fused, generic)
			}
		}
	}
}

// TestSnapshotFailAndTotal: failed entries stay in the node list (error
// totals, like the old drained flat snapshot) but out of the index.
func TestSnapshotFailAndTotal(t *testing.T) {
	s := New(PolicySpread)
	snap := NewSnapshot()
	snap.Reset()
	for i := 0; i < 3; i++ {
		snap.AddNode(node(fmt.Sprintf("node-%d", i), 4000, 0))
	}
	snap.Fail("node-1")
	if snap.Live() != 2 || snap.Len() != 3 {
		t.Fatalf("Live=%d Len=%d, want 2/3", snap.Live(), snap.Len())
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Lookup("node-1"); ok {
		t.Error("failed node still resolvable")
	}
	// Unschedulable totals count the drained entry, as before.
	_, err := s.ScheduleOn(pod("big", 99000), snap)
	u, ok := err.(*Unschedulable)
	if !ok {
		t.Fatalf("want Unschedulable, got %v", err)
	}
	if u.Total != 3 {
		t.Errorf("Total = %d, want 3 (drained entry included)", u.Total)
	}
	// Double-fail and unknown-fail are harmless no-ops.
	if snap.Fail("node-1") || snap.Fail("nope") {
		t.Error("re-failing returned true")
	}
}

// TestScheduleSteadyStateAllocs gates the zero-allocation contract of
// both placement paths (mirrors the cluster's TestTickSteadyStateAllocs).
func TestScheduleSteadyStateAllocs(t *testing.T) {
	s := New(PolicySpread)
	snap := NewSnapshot()
	snap.Reset()
	rng := rand.New(rand.NewSource(1))
	nodes := make([]NodeInfo, 0, 128)
	for i := 0; i < 128; i++ {
		n := randNode(rng, i)
		snap.AddNode(n)
		nodes = append(nodes, n)
	}
	// Alternating a pod and a selector-bearing pod of another app makes
	// every call a heap rebuild; repeating one pod reads the cached top.
	p := pod("steady", 500)
	q := pod("other", 700)
	q.App, q.NodeSelector = "other", map[string]string{"pool": "hpc"}
	for _, c := range []struct {
		name string
		pods []PodInfo
	}{{"cached", []PodInfo{p}}, {"rebuild", []PodInfo{p, q}}} {
		i := 0
		call := func() {
			if _, err := s.ScheduleOn(c.pods[i%len(c.pods)], snap); err != nil {
				t.Fatal(err)
			}
			i++
		}
		call()
		if allocs := testing.AllocsPerRun(200, call); allocs > 0 {
			t.Errorf("ScheduleOn steady state (%s) allocates %.1f objects/op, want 0", c.name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Schedule(p, nodes); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("Schedule steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// TestScheduleGangSteadyStateAllocs: the map-free gang path with reused
// destination must not allocate after warm-up.
func TestScheduleGangSteadyStateAllocs(t *testing.T) {
	s := New(PolicySpread)
	nodes := make([]NodeInfo, 16)
	for i := range nodes {
		nodes[i] = node(fmt.Sprintf("node-%02d", i), 16000, 0)
	}
	gang := make([]PodInfo, 8)
	for i := range gang {
		gang[i] = pod(fmt.Sprintf("g-%d", i), 1500)
	}
	dst := make([]string, len(gang))
	if err := s.ScheduleGangInto(dst, gang, nodes); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.ScheduleGangInto(dst, gang, nodes); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("ScheduleGangInto steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPreemptSteadyStateAllocs: the no-plan path must not allocate (it
// runs on every pending pod that failed to schedule).
func TestPreemptSteadyStateAllocs(t *testing.T) {
	s := New(PolicySpread)
	n := node("n1", 4000, 4000)
	n.Pods = []PodInfo{
		{Name: "svc-1", Requests: resource.New(2000, 0, 0, 0), Priority: 100},
		{Name: "svc-2", Requests: resource.New(2000, 0, 0, 0), Priority: 100},
	}
	nodes := []NodeInfo{n}
	incoming := PodInfo{Name: "equal", Requests: resource.New(1000, 0, 0, 0), Priority: 100}
	if plan := s.Preempt(incoming, nodes); plan != nil {
		t.Fatalf("unexpected plan %+v", plan)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if plan := s.Preempt(incoming, nodes); plan != nil {
			t.Fatal("plan appeared")
		}
	}); allocs > 0 {
		t.Errorf("Preempt no-plan path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestScheduleGangIntoValidates: dst length must match.
func TestScheduleGangIntoValidates(t *testing.T) {
	s := New(PolicySpread)
	if err := s.ScheduleGangInto(make([]string, 1), make([]PodInfo, 2), nil); err == nil {
		t.Error("mismatched dst accepted")
	}
}

// TestGangEquivalentOnSnapshots: ScheduleGang(map) and ScheduleGangInto
// produce the same assignment.
func TestGangEquivalentOnSnapshots(t *testing.T) {
	s := New(PolicyBinPack)
	nodes := []NodeInfo{node("n1", 4000, 0), node("n2", 4000, 0)}
	gang := []PodInfo{pod("g-0", 2000), pod("g-1", 2000), pod("g-2", 2000)}
	m, err := s.ScheduleGang(gang, nodes)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]string, len(gang))
	if err := s.ScheduleGangInto(dst, gang, nodes); err != nil {
		t.Fatal(err)
	}
	for i, p := range gang {
		if m[p.Name] != dst[i] {
			t.Errorf("member %s: map says %q, into says %q", p.Name, m[p.Name], dst[i])
		}
	}
}

func benchSnapshot(b *testing.B, n int) (*Scheduler, *Snapshot) {
	b.Helper()
	snap := NewSnapshot()
	loadBenchNodes(snap, n)
	return New(PolicySpread), snap
}

// loadBenchNodes (re)fills snap with n random nodes, the same ones on
// every call.
func loadBenchNodes(snap *Snapshot, n int) {
	snap.Reset()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		snap.AddNode(randNode(rng, i))
	}
}

// BenchmarkScheduleOn times the per-replica placement path: each call is
// committed, as the cluster's drain does. "replicas" places pods of one
// class, so every call after the first reads the heap top and the commit
// rescores one node; "switch" alternates two classes, so every call pays
// the full rebuild scan. A snapshot that fills up is reloaded off the
// clock.
func BenchmarkScheduleOn(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		for _, mode := range []string{"replicas", "switch"} {
			b.Run(fmt.Sprintf("nodes=%d/%s", n, mode), func(b *testing.B) {
				s, snap := benchSnapshot(b, n)
				pods := [2]PodInfo{pod("a", 500), pod("b", 700)}
				pods[1].App = "other"
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := pods[0]
					if mode == "switch" {
						p = pods[i%2]
					}
					name, err := s.ScheduleOn(p, snap)
					if err != nil {
						b.StopTimer()
						loadBenchNodes(snap, n)
						b.StartTimer()
						if name, err = s.ScheduleOn(p, snap); err != nil {
							b.Fatal(err)
						}
					}
					snap.Commit(name, p)
				}
			})
		}
	}
}

func BenchmarkScheduleBrute(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			s, snap := benchSnapshot(b, n)
			nodes := append([]NodeInfo(nil), snap.Nodes()...)
			p := pod("p", 500)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(p, nodes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScheduleGangInto(b *testing.B) {
	s := New(PolicySpread)
	nodes := make([]NodeInfo, 64)
	for i := range nodes {
		nodes[i] = node(fmt.Sprintf("node-%02d", i), 16000, 0)
	}
	gang := make([]PodInfo, 16)
	for i := range gang {
		gang[i] = pod(fmt.Sprintf("g-%02d", i), 1500)
	}
	dst := make([]string, len(gang))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ScheduleGangInto(dst, gang, nodes); err != nil {
			b.Fatal(err)
		}
	}
}
