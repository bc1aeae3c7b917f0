package sched

import (
	"fmt"
	"math/rand"
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
// decisions from ScheduleOn (index-pruned) and Schedule (brute force) at
// every step — the index must never hide a feasible node or change the
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
				snap.Build()
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
				st := indexed.Stats()
				if st.Pruned == 0 {
					t.Error("index pruned nothing over 400 randomized placements")
				}
			})
		}
	}
}

// TestSnapshotCandidatesComplete cross-checks the prefix property
// directly: every node the brute-force filter chain accepts must be in
// the candidate set.
func TestSnapshotCandidatesComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New(PolicySpread)
	snap := NewSnapshot()
	snap.Reset()
	for i := 0; i < 80; i++ {
		snap.AddNode(randNode(rng, i))
	}
	snap.Build()
	for i := 0; i < 300; i++ {
		p := randPod(rng, i)
		cand := snap.candidates(&p)
		inCand := make(map[int32]bool, len(cand))
		for _, e := range cand {
			inCand[e] = true
		}
		for e := range snap.nodes {
			free := snap.nodes[e].Free()
			if s.feasible(&p, &snap.nodes[e], &free) && !inCand[int32(e)] {
				t.Fatalf("pod %d: feasible node %s missing from candidates", i, snap.nodes[e].Name)
			}
		}
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
	snap.Build()
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
	snap.Build()
	p := pod("steady", 500)
	if _, err := s.ScheduleOn(p, snap); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.ScheduleOn(p, snap); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("ScheduleOn steady state allocates %.1f objects/op, want 0", allocs)
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
	s := New(PolicySpread)
	snap := NewSnapshot()
	snap.Reset()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		snap.AddNode(randNode(rng, i))
	}
	snap.Build()
	return s, snap
}

func BenchmarkScheduleOn(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			s, snap := benchSnapshot(b, n)
			p := pod("p", 500)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ScheduleOn(p, snap); err != nil {
					b.Fatal(err)
				}
			}
		})
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
