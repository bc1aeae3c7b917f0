package cluster

import (
	"testing"

	"evolve/internal/perf"
)

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

// TestFanOutParallelRoundsEngage: the phases run on the pool exactly
// when more than one shard and more than one worker are configured, and
// never otherwise. Only a parallel round waits at the barrier, so with
// phase timing on the barrier-wait total is positive exactly then (race
// coverage: under -race this runs the multi-goroutine tick).
func TestFanOutParallelRoundsEngage(t *testing.T) {
	const ticks = 10
	for _, tc := range fanOutConfigs {
		c := shardedBenchCluster(t, tc.shards, tc.workers)
		pb := c.EnablePhaseTiming()
		for k := 0; k < ticks; k++ {
			c.tick()
		}
		if wait := pb.PhaseTotalNs(perf.PhaseBarrier); (wait > 0) != tc.parallel {
			t.Errorf("shards=%d workers=%d: %d ticks waited %d ns at the barrier, want parallel rounds %v", tc.shards, tc.workers, ticks, wait, tc.parallel)
		}
	}
}

// TestFanOutTickAllocs is TestTickSteadyStateAllocs on the parallel
// fan-out: with four shards on four workers, a settled tick hands its
// phases to the pool through the shards' own job structs and allocates
// nothing. Phase timing is on so the barrier wait shows the pool ran.
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
	pb := c.EnablePhaseTiming()
	allocs := testing.AllocsPerRun(100, func() { c.tick() })
	if allocs != 0 {
		t.Errorf("steady-state 4-shard, 4-worker tick allocates %.1f objects/run, want 0", allocs)
	}
	if pb.PhaseTotalNs(perf.PhaseBarrier) == 0 {
		t.Fatal("no phase ran on the pool")
	}
}
