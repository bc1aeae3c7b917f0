package harness

import (
	"fmt"
	"time"

	"evolve/internal/control"
	"evolve/internal/core"
	"evolve/internal/plo"
	"evolve/internal/resource"
	"evolve/internal/sched"
	"evolve/internal/sim"
	"evolve/internal/world"
)

// syntheticObservation builds a plausible observation for overhead
// measurements; idx varies the values so nothing is constant-folded.
func syntheticObservation(idx int) control.Observation {
	f := float64(idx%17) + 1
	return control.Observation{
		App:      "svc",
		Now:      time.Duration(idx) * 15 * time.Second,
		Interval: 15 * time.Second,
		PLO:      plo.Latency(100 * time.Millisecond),
		SLI:      0.05 + 0.01*f,
		Replicas: 2 + idx%3, ReadyReplicas: 2 + idx%3,
		Alloc:       resource.New(1000+10*f, 1<<30, 50e6, 50e6),
		Usage:       resource.New(600+20*f, 700<<20, 10e6, 10e6),
		Utilisation: resource.New(0.6+0.01*f, 0.68, 0.2, 0.2),
		OfferedLoad: 240 + f,
		Throughput:  240 + f,
		Limits: control.Limits{
			MinReplicas: 1, MaxReplicas: 64,
			MinAlloc: resource.New(50, 64<<20, 1e6, 1e6),
			MaxAlloc: resource.New(16000, 64<<30, 1e9, 1e9),
		},
	}
}

// MeasureDecisionLatency times the full EVOLVE Decide path over n apps
// for iters control periods and returns the mean wall-clock time per
// decision. Wall-clock measurements vary by machine; the shape (linear in
// apps, sub-microsecond each) is what Table 4 and Figure 6 report.
func MeasureDecisionLatency(apps, iters int) time.Duration {
	ctrls := make([]control.Controller, apps)
	f := core.Factory(core.DefaultConfig())
	for i := range ctrls {
		ctrls[i] = f(fmt.Sprintf("svc-%d", i))
	}
	obs := make([]control.Observation, apps)
	for i := range obs {
		obs[i] = syntheticObservation(i)
	}
	start := time.Now()
	for it := 0; it < iters; it++ {
		for i, c := range ctrls {
			o := obs[i]
			o.Interval = 15 * time.Second
			o.SLI = 0.05 + float64((it+i)%13)*0.01
			_ = c.Decide(o)
		}
	}
	elapsed := time.Since(start)
	total := apps * iters
	if total == 0 {
		return 0
	}
	return elapsed / time.Duration(total)
}

// overheadSnapshot builds the scheduler and snapshot the placement
// measurement runs against: the same node distribution the brute-force
// measurement always used, loaded into the snapshot path the cluster's
// pending-pod loop takes.
func overheadSnapshot(nodes int) (*sched.Scheduler, *sched.Snapshot) {
	s := sched.New(sched.PolicySpread)
	snap := sched.NewSnapshot()
	snap.Reset()
	rng := sim.NewRNG(7)
	for i := 0; i < nodes; i++ {
		snap.AddNode(sched.NodeInfo{
			Name:        fmt.Sprintf("node-%04d", i),
			Allocatable: world.DefaultNodeShape(),
			Allocated:   world.DefaultNodeShape().Scale(rng.Uniform(0.1, 0.8)),
		})
	}
	return s, snap
}

// MeasureScheduleLatency times one placement decision over a cluster of
// the given node count: a ScheduleOn call against a steady snapshot. The
// pods alternate between two services, so every call scans all nodes —
// the cost of a pod whose class the snapshot's heap does not hold. A
// further replica of the previous pod's service costs O(log nodes).
func MeasureScheduleLatency(nodes, iters int) time.Duration {
	s, snap := overheadSnapshot(nodes)
	pods := [2]sched.PodInfo{
		{Name: "p", App: "svc-a", Requests: resource.New(1000, 2<<30, 10e6, 10e6), Priority: 100},
		{Name: "q", App: "svc-b", Requests: resource.New(1000, 2<<30, 10e6, 10e6), Priority: 100},
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := s.ScheduleOn(pods[i%2], snap); err != nil {
			panic(err)
		}
	}
	if iters == 0 {
		return 0
	}
	return time.Since(start) / time.Duration(iters)
}

// Table4 reports control-plane overhead: per-decision and per-placement
// wall-clock latency at several scales.
func Table4() *Table {
	t := &Table{
		ID:      "Table 4",
		Title:   "Control-plane overhead (wall-clock, this machine)",
		Headers: []string{"operation", "scale", "latency/op"},
		Notes: []string{
			"a 1000-app fleet at 15s control periods needs ~67 decisions/s; both paths are orders of magnitude faster",
		},
	}
	for _, apps := range []int{10, 100, 1000} {
		d := MeasureDecisionLatency(apps, 2000/maxIntH(apps/10, 1))
		t.AddRow("autoscaler decision", fmt.Sprintf("%d apps", apps), d.String())
	}
	for _, nodes := range []int{10, 100, 500, 5000} {
		d := MeasureScheduleLatency(nodes, 2000)
		t.AddRow("pod placement", fmt.Sprintf("%d nodes", nodes), d.String())
	}
	return t
}

func maxIntH(a, b int) int {
	if a > b {
		return a
	}
	return b
}
