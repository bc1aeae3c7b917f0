package cluster

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"evolve/internal/control"
	"evolve/internal/resource"
	"evolve/internal/sched"
	"evolve/internal/sim"
)

// benchSizes are the pod counts the hot-path benchmarks sweep. 5000 pods
// is the scale the ROADMAP's "production-scale" north star implies; the
// acceptance bar for PR 2 is ≥3x on the 5000-pod tick.
var benchSizes = []int{50, 500, 5000}

// newBenchCluster builds a settled cluster hosting roughly `pods` service
// replicas spread over pods/25 services and pods/8 nodes, with every
// replica bound and serving. The returned cluster is in steady state:
// ticking it performs telemetry and accounting only, no placement churn.
func newBenchCluster(tb testing.TB, pods int) (*Cluster, *sim.Engine) {
	tb.Helper()
	return newBenchClusterHistory(tb, pods, 0)
}

// newBenchClusterHistory is newBenchCluster with the given metric
// retention window (0 keeps every sample).
func newBenchClusterHistory(tb testing.TB, pods int, history time.Duration) (*Cluster, *sim.Engine) {
	tb.Helper()
	return newBenchClusterConfig(tb, pods, func(cfg *Config) { cfg.MetricsHistory = history })
}

// newBenchClusterConfig is newBenchCluster with its config adjusted by
// tweak before the cluster is built.
func newBenchClusterConfig(tb testing.TB, pods int, tweak func(*Config)) (*Cluster, *sim.Engine) {
	tb.Helper()
	eng := sim.NewEngine(7)
	cfg := Config{
		MetricsInterval:  5 * time.Second,
		Interference:     true,
		SchedulerPolicy:  sched.PolicySpread,
		MeasurementNoise: 0.03,
	}
	tweak(&cfg)
	c := New(eng, cfg)
	nodes := pods/8 + 1
	if err := c.AddNodes("n", nodes, resource.New(64000, 256<<30, 4e9, 8e9)); err != nil {
		tb.Fatal(err)
	}
	services := pods / 25
	if services == 0 {
		services = 1
	}
	per := pods / services
	if per == 0 {
		per = 1
	}
	for i := 0; i < services; i++ {
		spec := testService(fmt.Sprintf("svc-%d", i))
		spec.InitialReplicas = per
		spec.MaxReplicas = per * 2
		spec.InitialAlloc = resource.New(500, 1<<30, 10e6, 10e6)
		if err := c.CreateService(spec); err != nil {
			tb.Fatal(err)
		}
		if err := c.SetLoadFunc(spec.Name, func(now time.Duration) float64 {
			return 200 + 100*math.Sin(now.Seconds()/300)
		}); err != nil {
			tb.Fatal(err)
		}
	}
	c.Start()
	// Two intervals settle the topology: the first tick binds every
	// replica, the second records steady telemetry.
	eng.Run(2 * cfg.MetricsInterval)
	return c, eng
}

// BenchmarkTick measures one steady-state cluster tick: telemetry,
// interference accounting and SLI evaluation with nothing pending.
func BenchmarkTick(b *testing.B) {
	for _, pods := range benchSizes {
		b.Run(fmt.Sprintf("pods-%d", pods), func(b *testing.B) {
			c, _ := newBenchCluster(b, pods)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.tick()
			}
		})
	}
}

// BenchmarkTickManyApps measures one tick of a world shaped like
// e2ebench's many-apps: 512 services of 2 replicas on 256 nodes with a
// 15-minute metric history, warmed past one window so every app's frame
// compacts in place. Each iteration advances the clock by one metrics
// interval (a tick in place would stamp every row with one time and
// never evict); the apps are observed between ticks, off the clock, so
// the controller windows stay at one sample.
func BenchmarkTickManyApps(b *testing.B) {
	const history = 15 * time.Minute
	eng := sim.NewEngine(7)
	c := New(eng, Config{
		MetricsInterval:  5 * time.Second,
		MetricsHistory:   history,
		Interference:     true,
		SchedulerPolicy:  sched.PolicySpread,
		MeasurementNoise: 0.03,
	})
	if err := c.AddNodes("n", 256, resource.New(64000, 256<<30, 4e9, 8e9)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		spec := testService(fmt.Sprintf("svc-%03d", i))
		spec.InitialReplicas = 2
		spec.MaxReplicas = 4
		spec.InitialAlloc = resource.New(500, 1<<30, 10e6, 10e6)
		if err := c.CreateService(spec); err != nil {
			b.Fatal(err)
		}
		phase := float64(i)
		if err := c.SetLoadFunc(spec.Name, func(now time.Duration) float64 {
			return 150 + 100*math.Sin(now.Seconds()/300+phase)
		}); err != nil {
			b.Fatal(err)
		}
	}
	apps := c.Apps()
	observe := func() {
		for _, app := range apps {
			if _, err := c.Observe(app); err != nil {
				b.Fatal(err)
			}
		}
	}
	c.Start()
	for end := history + time.Minute; eng.Now() < end; {
		eng.Run(eng.Now() + c.cfg.MetricsInterval)
		observe()
	}
	b.Run("apps-512", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Run(eng.Now() + c.cfg.MetricsInterval)
			b.StopTimer()
			observe()
			b.StartTimer()
		}
	})
}

// benchSchedulePending is one BenchmarkSchedulePending case: a backlog
// of `pods` unbound replicas drained in one round over `nodes` nodes.
func benchSchedulePending(b *testing.B, pods, nodes int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewEngine(7)
		c := New(eng, DefaultConfig())
		if err := c.AddNodes("n", nodes, resource.New(64000, 256<<30, 4e9, 8e9)); err != nil {
			b.Fatal(err)
		}
		services := pods / 25
		if services == 0 {
			services = 1
		}
		for s := 0; s < services; s++ {
			spec := testService(fmt.Sprintf("svc-%d", s))
			spec.InitialReplicas = pods / services
			spec.MaxReplicas = pods
			spec.InitialAlloc = resource.New(500, 1<<30, 10e6, 10e6)
			if err := c.CreateService(spec); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		c.SchedulePendingNow()
	}
}

// BenchmarkSchedulePending measures draining a full pending backlog: the
// cluster starts with every replica unbound, and one call places them
// all. The nodes-512 case fixes the node count at the parallel-scoring
// threshold scale while the backlog stays at 5000 pods.
func BenchmarkSchedulePending(b *testing.B) {
	for _, pods := range benchSizes {
		b.Run(fmt.Sprintf("pods-%d", pods), func(b *testing.B) {
			benchSchedulePending(b, pods, pods/8+1)
		})
	}
	b.Run("pods-5000/nodes-512", func(b *testing.B) {
		benchSchedulePending(b, 5000, 512)
	})
}

// BenchmarkScheduleGang measures hypothetical all-or-nothing gang
// placement over the public snapshot (the EASY-backfill query path):
// nothing commits, so every iteration answers the same question.
func BenchmarkScheduleGang(b *testing.B) {
	for _, ranks := range []int{8, 64} {
		b.Run(fmt.Sprintf("ranks-%d", ranks), func(b *testing.B) {
			c, _ := newBenchCluster(b, 500)
			infos := c.NodeInfos()
			gang := make([]sched.PodInfo, ranks)
			for i := range gang {
				gang[i] = sched.PodInfo{
					Name:     fmt.Sprintf("rank-%03d", i),
					App:      "mpi",
					Requests: resource.New(2000, 4<<30, 20e6, 20e6),
				}
			}
			dst := make([]string, len(gang))
			s := c.Scheduler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.ScheduleGangInto(dst, gang, infos); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullSim measures a complete simulated hour — scheduling, task
// completions, ticks — at each scale, the end-to-end number experiment
// sweeps pay per scenario.
func BenchmarkFullSim(b *testing.B) {
	for _, pods := range benchSizes {
		b.Run(fmt.Sprintf("pods-%d", pods), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, eng := newBenchCluster(b, pods)
				b.StartTimer()
				eng.Run(eng.Now() + time.Hour)
				_ = c
			}
		})
	}
}

// TestTickSteadyStateAllocs is the allocation-regression gate of the PR 2
// tentpole: once the cluster has settled and every series has grown its
// backing array, a tick must not allocate. The only allowed residue is
// the amortised growth of the append-only metric series, which the
// warm-up below pre-pays; the budget is deliberately near-zero.
func TestTickSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short")
	}
	c, eng := newBenchCluster(t, 200)
	// Warm up: enough ticks that every per-app and cluster series has
	// capacity headroom beyond the measured runs, then drain the SLI
	// windows so they regrow into existing capacity.
	eng.Run(eng.Now() + 700*c.cfg.MetricsInterval)
	for _, app := range c.Apps() {
		if _, err := c.Observe(app); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { c.tick() })
	if allocs > 0.5 {
		t.Errorf("steady-state tick allocates %.1f objects/run, want ~0", allocs)
	}
}

// TestTickWindowedHistoryAllocs is the state-bounded gate of the metric
// retention window: once every series holds one window, appends compact
// the window into the existing backing array, so after exactly one
// window of warm-up — no capacity headroom pre-paid — ticks spanning two
// more windows allocate nothing at all. The clock advances tick by tick
// (calling tick in place would stamp every sample with one time and
// never evict), and every app is observed each tick so the controller
// windows stay at one sample.
//
// The count comes from allocSites, not process-wide Mallocs: the
// runtime's background scavenger re-arms its timer on whichever P it
// runs, and on a P whose timer heap a GOMAXPROCS change emptied (any
// earlier AllocsPerRun) that append allocates — about once in 60 runs
// under -race, and none of the tick's doing.
func TestTickWindowedHistoryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short")
	}
	const history = 5 * time.Minute
	c, eng := newBenchClusterHistory(t, 200, history)
	apps := c.Apps()
	observe := func() {
		for _, app := range apps {
			if _, err := c.Observe(app); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Run(eng.Now() + history)
	observe()
	n := userMallocs(func() {
		for end := eng.Now() + 2*history; eng.Now() < end; {
			eng.Run(eng.Now() + c.cfg.MetricsInterval)
			observe()
		}
	})
	if n != 0 {
		t.Errorf("%d allocations over two windows of ticks after one window of warm-up, want 0", n)
	}
	if s := c.Metrics().Series("cluster/pods"); s.Total().Count <= s.Len() {
		t.Fatalf("cluster/pods retains all %d samples: nothing was evicted", s.Len())
	}
}

// TestSteadyDecisionAllocs is the zero-allocation gate of a steady
// actuation: a 500-replica service, bound and settled, that receives the
// decision it already carries changes nothing, so applying it walks the
// app's replicas in place — no copy, no node lookups, no version stamps
// beyond the app's own — and allocates nothing. It also resets the
// migration debt, as the full path would with nothing throttled.
func TestSteadyDecisionAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short")
	}
	eng := sim.NewEngine(7)
	c := New(eng, DefaultConfig())
	if err := c.AddNodes("n", 20, resource.New(64000, 256<<30, 4e9, 8e9)); err != nil {
		t.Fatal(err)
	}
	spec := testService("web")
	spec.InitialReplicas = 500
	spec.MaxReplicas = 1000
	spec.InitialAlloc = resource.New(500, 1<<30, 10e6, 10e6)
	if err := c.CreateService(spec); err != nil {
		t.Fatal(err)
	}
	c.Start()
	eng.Run(2 * c.cfg.MetricsInterval)
	if len(c.pending) != 0 || len(c.byApp["web"]) != 500 {
		t.Fatalf("not settled: %d pending, %d replicas", len(c.pending), len(c.byApp["web"]))
	}
	d := control.Decision{Replicas: 500, Alloc: spec.InitialAlloc}
	c.apps["web"].migrateDebt = 1
	before := c.version
	if err := c.ApplyDecision("web", d); err != nil {
		t.Fatal(err)
	}
	if c.version != before+1 || c.apps["web"].migrateDebt != 0 {
		t.Errorf("steady decision stamped %d versions and left migration debt %d, want 1 and 0",
			c.version-before, c.apps["web"].migrateDebt)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.ApplyDecision("web", d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady decision allocates %.1f objects/run, want 0", allocs)
	}
}

// userMallocs returns how many heap objects fn's run allocated outside
// the runtime's own goroutines. Every allocation is profiled while fn
// runs; a stack made only of runtime frames (the scavenger, GC workers)
// is not fn's, and neither is allocSites' bookkeeping. An allocation
// fn causes always has a non-runtime caller on its stack.
func userMallocs(fn func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocSites()
	fn()
	var n int64
	for stk, objs := range allocSites() {
		if d := objs - before[stk]; d > 0 && !foreignStack(stk) {
			n += d
		}
	}
	return n
}

// allocSites publishes the heap profile — an allocation reaches it two
// GC cycles later — and returns the objects allocated per stack.
func allocSites() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	sites := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		sites[r.Stack0] += r.AllocObjects
	}
	return sites
}

// foreignStack reports whether an allocation stack belongs to the
// runtime alone or to allocSites.
func foreignStack(stk [32]uintptr) bool {
	pcs := stk[:]
	for i, pc := range stk {
		if pc == 0 {
			pcs = stk[:i]
			break
		}
	}
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		switch {
		case strings.HasSuffix(f.Function, ".allocSites"):
			return true
		case f.Function != "" && !strings.HasPrefix(f.Function, "runtime.") && !strings.HasPrefix(f.Function, "internal/runtime/"):
			return false
		}
		if !more {
			return true
		}
	}
}
