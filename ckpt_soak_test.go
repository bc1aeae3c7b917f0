package evolve

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"
)

// TestCheckpointSoak chains crash/restore cycles inside one lineage:
// the world crashes repeatedly mid-run, each time restoring from its
// last periodic checkpoint (so a restore of a restore of a restore…),
// and the surviving lineage must still finish byte-identical to the
// run that never crashed. This is the long-haul version of the
// headline invariant — any state the snapshot forgets to carry, or
// carries inexactly, compounds across cycles and surfaces here.
//
// The default run keeps the matrix small; `make ckpt-soak` sets
// EVOLVE_CKPT_SOAK=1 to sweep every shard count and twice the crash
// points.
func TestCheckpointSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run")
	}
	shardCounts := []int{0, 2}
	crashPoints := []time.Duration{12 * time.Minute, 33 * time.Minute, 48 * time.Minute}
	if os.Getenv("EVOLVE_CKPT_SOAK") != "" {
		shardCounts = []int{0, 1, 2, 4, 7, 16}
		crashPoints = []time.Duration{
			11 * time.Minute, 17 * time.Minute, 24 * time.Minute,
			33 * time.Minute, 41 * time.Minute, 48 * time.Minute,
		}
	}
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			whole := soakWorld(t, shards)
			runInvariantChecked(t, whole, time.Hour)
			want := ckptFingerprint(whole)

			c := soakWorld(t, shards)
			for _, crashAt := range crashPoints {
				runInvariantChecked(t, c, crashAt-c.Now())
				snap := c.LastCheckpoint()
				if snap == nil {
					t.Fatalf("no checkpoint before crash at %v", crashAt)
				}
				c = soakWorld(t, shards)
				if err := c.Restore(bytes.NewReader(snap)); err != nil {
					t.Fatalf("restore after crash at %v: %v", crashAt, err)
				}
				if err := c.w.Cluster.CheckInvariants(); err != nil {
					t.Fatalf("restored at %v: %v", c.Now(), err)
				}
			}
			runInvariantChecked(t, c, time.Hour-c.Now())
			if got := ckptFingerprint(c); got != want {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				lo := max(0, i-200)
				t.Errorf("soak lineage diverged from uninterrupted run at byte %d:\n--- uninterrupted\n…%s\n--- soak\n…%s",
					i, want[lo:min(len(want), i+200)], got[lo:min(len(got), i+200)])
			}
		})
	}
}

// soakWorld is ckptWorld under mixed chaos plus a second service whose
// replica names sort differently from their creation order: "api-3",
// "api-10" and "api-11" survive from construction, and a load step
// scales the service out to "api-12".."api-14" at 8m15s, which sort by
// name before the older "api-3". A checkpoint lists pods in name order,
// so a restore that leaves a service's replica index in that order fails
// CheckInvariants.
func soakWorld(t *testing.T, shards int) *Cluster {
	t.Helper()
	c := ckptWorld(t, shards, "mixed")
	if err := c.AddService(ServiceOptions{Name: "api", Archetype: "web", BaseRate: 900, Replicas: 9}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("api", Step(900, 3000, 8*time.Minute)); err != nil {
		t.Fatal(err)
	}
	return c
}

// runInvariantChecked advances the world by d one metrics interval at a
// time and re-derives the kernel's dense tick state from the object
// graph after each tick (cluster.CheckInvariants). Stepping instead of
// arming an engine timer keeps the checker out of the checkpointed
// timer set; slicing a run never changes its outcome.
func runInvariantChecked(t *testing.T, c *Cluster, d time.Duration) {
	t.Helper()
	step := c.w.Cluster.Config().MetricsInterval
	for end := c.Now() + d; c.Now() < end; {
		if err := c.Run(min(step, end-c.Now())); err != nil {
			t.Fatal(err)
		}
		if err := c.w.Cluster.CheckInvariants(); err != nil {
			t.Fatalf("t=%v: %v", c.Now(), err)
		}
	}
}
