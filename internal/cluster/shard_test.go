package cluster

import "testing"

// shardedBenchCluster is the settled 200-pod bench cluster split into
// shards partitions with the given fan-out workers.
func shardedBenchCluster(t *testing.T, shards, workers int) *Cluster {
	t.Helper()
	c, _ := newBenchClusterConfig(t, 200, func(cfg *Config) {
		cfg.Shards, cfg.ShardWorkers = shards, workers
	})
	return c
}

// fanOutConfigs are the shard/worker splits the fan-out gates run:
// serial (one shard or one worker) and parallel (more of both).
var fanOutConfigs = []struct {
	shards, workers int
	parallel        bool
}{
	{1, 1, false}, {1, 4, false}, {4, 1, false}, {4, 4, true}, {7, 2, true},
}

// TestFanOutRoundsPerPhase: one tick is three fan-out rounds — P2, P3,
// P1 — one per phase, each running every shard exactly once, so a
// shard's run count is the round count. The shard clock is the tick's
// instant, and Run carries it to the horizon.
func TestFanOutRoundsPerPhase(t *testing.T) {
	for _, tc := range fanOutConfigs {
		c := shardedBenchCluster(t, tc.shards, tc.workers)
		before, runs := c.KernelState(), c.ShardRuns(nil)
		c.tick()
		after := c.KernelState()
		if d := after.Rounds - before.Rounds; d != 3 {
			t.Errorf("shards=%d workers=%d: one tick added %d rounds, want 3", tc.shards, tc.workers, d)
		}
		for i, n := range c.ShardRuns(nil) {
			if n-runs[i] != 3 {
				t.Errorf("shards=%d workers=%d: shard %d ran %d phases in one tick, want 3", tc.shards, tc.workers, i, n-runs[i])
			}
			if n != after.Rounds {
				t.Errorf("shards=%d workers=%d: shard %d ran %d phases over %d rounds", tc.shards, tc.workers, i, n, after.Rounds)
			}
		}
		if after.Clock != c.now() {
			t.Errorf("shards=%d workers=%d: shard clock %v after a tick at %v", tc.shards, tc.workers, after.Clock, c.now())
		}
		horizon := c.now() + 2*c.cfg.MetricsInterval + 1
		c.Run(horizon)
		if got := c.KernelState().Clock; got != horizon {
			t.Errorf("shards=%d workers=%d: shard clock %v after Run to %v", tc.shards, tc.workers, got, horizon)
		}
	}
}

// TestFanOutParallelRoundsEngage: the phases run on the pool exactly
// when more than one shard and more than one worker are configured —
// then every round is parallel — and never otherwise. Over many ticks
// each shard still runs once per round (race coverage: under -race this
// runs the multi-goroutine tick).
func TestFanOutParallelRoundsEngage(t *testing.T) {
	const ticks = 10
	for _, tc := range fanOutConfigs {
		c := shardedBenchCluster(t, tc.shards, tc.workers)
		before, runs := c.KernelState(), c.ShardRuns(nil)
		for k := 0; k < ticks; k++ {
			c.tick()
		}
		after := c.KernelState()
		wantPar := uint64(0)
		if tc.parallel {
			wantPar = 3 * ticks
		}
		if d := after.ParRounds - before.ParRounds; d != wantPar {
			t.Errorf("shards=%d workers=%d: %d ticks added %d parallel rounds, want %d", tc.shards, tc.workers, ticks, d, wantPar)
		}
		for i, n := range c.ShardRuns(nil) {
			if n-runs[i] != 3*ticks {
				t.Errorf("shards=%d workers=%d: shard %d ran %d phases in %d ticks, want %d", tc.shards, tc.workers, i, n-runs[i], ticks, 3*ticks)
			}
		}
	}
}

// TestFanOutTickAllocs is TestTickSteadyStateAllocs on the parallel
// fan-out: with four shards on four workers, a settled tick hands its
// phases to the pool through the shards' own job structs and allocates
// nothing.
func TestFanOutTickAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short")
	}
	c := shardedBenchCluster(t, 4, 4)
	c.Run(c.now() + 700*c.cfg.MetricsInterval)
	for _, app := range c.Apps() {
		if _, err := c.Observe(app); err != nil {
			t.Fatal(err)
		}
	}
	par0 := c.KernelState().ParRounds
	allocs := testing.AllocsPerRun(100, func() { c.tick() })
	if allocs != 0 {
		t.Errorf("steady-state 4-shard, 4-worker tick allocates %.1f objects/run, want 0", allocs)
	}
	if c.KernelState().ParRounds == par0 {
		t.Fatal("no phase ran on the pool")
	}
}
