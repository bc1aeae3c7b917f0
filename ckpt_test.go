package evolve

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"evolve/internal/obs"
)

// ckptWorld builds the standard checkpoint-test world: one diurnal web
// service, a batch DAG and an HPC gang whose tasks straddle the 30m
// checkpoint barrier, optional mixed chaos, tracing and periodic
// checkpoints. Every test constructs identical worlds — the checkpoint
// contract is "same construction + checkpoint = same world".
func ckptWorld(t *testing.T, shards int, chaos string) *Cluster {
	t.Helper()
	c, err := New(Options{Seed: 21, Nodes: 6, Shards: shards, ShardWorkers: 1, Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{
		Name: "web", Archetype: "web", BaseRate: 300,
		LatencyObjective: 100 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("web", Noisy(Diurnal(150, 900, time.Hour), 0.1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitBatchJob(BatchJobOptions{Name: "sort", Scale: 0.5, SubmitAt: 25 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitHPCJob(HPCJobOptions{Name: "mpi", Ranks: 2, SubmitAt: 28 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	c.EnableTracing(0)
	if err := c.EnableCheckpoints("", 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	return c
}

// ckptFingerprint flattens everything observable about a run — report,
// event log, trace ring and span ring — into one comparable string.
func ckptFingerprint(c *Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n--events--\n%+v\n", c.Report(), c.Events())
	for _, ev := range c.Tracer().Snapshot(obs.Filter{}) {
		fmt.Fprintf(&b, "%+v\n", ev)
	}
	b.WriteString("--spans--\n")
	for _, sp := range c.Tracer().SpanSnapshot(obs.SpanFilter{}) {
		fmt.Fprintf(&b, "%+v\n", sp)
	}
	return b.String()
}

// TestCheckpointRestoreContinueByteIdentical is the headline invariant:
// run → checkpoint at 30m → restore into a fresh world → continue to
// 60m is byte-identical (report, events, trace, spans) to the same
// world run uninterrupted, across the full shard matrix with chaos on
// and off. In -short mode the matrix shrinks to its corners.
func TestCheckpointRestoreContinueByteIdentical(t *testing.T) {
	shardCounts := []int{0, 1, 2, 4, 7, 16}
	chaosPlans := []string{"", "mixed"}
	if testing.Short() {
		shardCounts = []int{0, 2}
		chaosPlans = []string{"mixed"}
	}
	for _, shards := range shardCounts {
		for _, chaos := range chaosPlans {
			name := fmt.Sprintf("shards=%d/chaos=%s", shards, chaos)
			if chaos == "" {
				name = fmt.Sprintf("shards=%d/chaos=off", shards)
			}
			t.Run(name, func(t *testing.T) {
				whole := ckptWorld(t, shards, chaos)
				if err := whole.Run(time.Hour); err != nil {
					t.Fatal(err)
				}
				want := ckptFingerprint(whole)

				half := ckptWorld(t, shards, chaos)
				if err := half.Run(30 * time.Minute); err != nil {
					t.Fatal(err)
				}
				var snap bytes.Buffer
				if err := half.Checkpoint(&snap); err != nil {
					t.Fatal(err)
				}

				resumed := ckptWorld(t, shards, chaos)
				if err := resumed.Restore(bytes.NewReader(snap.Bytes())); err != nil {
					t.Fatal(err)
				}
				if resumed.Now() != 30*time.Minute {
					t.Fatalf("restored clock at %v, want 30m", resumed.Now())
				}
				if err := resumed.Run(30 * time.Minute); err != nil {
					t.Fatal(err)
				}
				got := ckptFingerprint(resumed)
				if got != want {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					lo := max(0, i-200)
					t.Errorf("restored run diverged from uninterrupted run at byte %d:\n--- uninterrupted\n…%s\n--- restored\n…%s",
						i, want[lo:min(len(want), i+200)], got[lo:min(len(got), i+200)])
				}
			})
		}
	}
}

// TestResumeFromPeriodicCheckpoint is the crash-resume path: the world
// dies mid-run, a fresh one restores the last periodic checkpoint (taken
// inside the timer callback, mid-timestamp — a different barrier than a
// manual post-Run snapshot) and continues byte-identically to the run
// that never died.
func TestResumeFromPeriodicCheckpoint(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			whole := ckptWorld(t, shards, "mixed")
			if err := whole.Run(time.Hour); err != nil {
				t.Fatal(err)
			}
			want := ckptFingerprint(whole)

			crashed := ckptWorld(t, shards, "mixed")
			if err := crashed.Run(32 * time.Minute); err != nil {
				t.Fatal(err)
			}
			if n, total := crashed.CheckpointStats(); n != 3 || total <= 0 {
				t.Fatalf("stats after 32m at 10m cadence: count=%d bytes=%d", n, total)
			}
			snap := crashed.LastCheckpoint() // the 30m one; 31–32m is lost

			resumed := ckptWorld(t, shards, "mixed")
			if err := resumed.Restore(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}
			if resumed.Now() != 30*time.Minute {
				t.Fatalf("restored clock at %v, want 30m", resumed.Now())
			}
			if err := resumed.Run(30 * time.Minute); err != nil {
				t.Fatal(err)
			}
			if got := ckptFingerprint(resumed); got != want {
				t.Error("resume from periodic checkpoint diverged from the uninterrupted run")
			}
		})
	}
}

// TestCtrlCrashRestartsFromCheckpoint: a ctrl-crash window kills the
// controller and the restore edge brings it back from the last
// controller checkpoint; both transitions land in the event log and the
// run replays deterministically.
func TestCtrlCrashRestartsFromCheckpoint(t *testing.T) {
	run := func() (string, []EventRecord) {
		c, err := New(Options{Seed: 9, Nodes: 4, Chaos: "ctrl-crash@20m-26m"})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddService(ServiceOptions{Name: "web", BaseRate: 300}); err != nil {
			t.Fatal(err)
		}
		if err := c.SetLoad("web", Diurnal(150, 900, time.Hour)); err != nil {
			t.Fatal(err)
		}
		if err := c.EnableCheckpoints("", 5*time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		return c.Report().String(), c.Events()
	}
	rep, events := run()
	var crashed, restarted bool
	for _, ev := range events {
		crashed = crashed || ev.Kind == "ctrl-crash"
		restarted = restarted || ev.Kind == "ctrl-restart"
	}
	if !crashed || !restarted {
		t.Errorf("event log missing crash/restart transitions (crashed=%v restarted=%v)", crashed, restarted)
	}
	if rep2, _ := run(); rep2 != rep {
		t.Errorf("ctrl-crash replay diverged:\n--- first\n%s\n--- second\n%s", rep, rep2)
	}
}

// TestCtrlCrashWithoutRestore: an open-ended ctrl-crash leaves the
// controller down for the rest of the run — the world keeps ticking,
// the report still renders.
func TestCtrlCrashWithoutRestore(t *testing.T) {
	c, err := New(Options{Seed: 9, Nodes: 4, Chaos: "ctrl-crash@20m"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{Name: "web", BaseRate: 300}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("web", Constant(300)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	var restarted bool
	for _, ev := range c.Events() {
		restarted = restarted || ev.Kind == "ctrl-restart"
	}
	if restarted {
		t.Error("open-ended crash window must not restart the controller")
	}
}

// TestCheckpointFiles: the periodic timer writes ckpt-*.evck files,
// LatestCheckpoint finds the newest, and RestoreFile resumes from it.
func TestCheckpointFiles(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Seed: 5, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{Name: "svc", BaseRate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("svc", Constant(100)); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableCheckpoints(dir, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(35 * time.Minute); err != nil {
		t.Fatal(err)
	}
	path, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "ckpt-000000001800.evck") {
		t.Errorf("latest checkpoint = %s, want the 30m one", path)
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, c.LastCheckpoint()) {
		t.Errorf("newest file differs from LastCheckpoint (read error %v)", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temporary files left behind: %v", tmps)
	}

	r, err := New(Options{Seed: 5, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddService(ServiceOptions{Name: "svc", BaseRate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := r.SetLoad("svc", Constant(100)); err != nil {
		t.Fatal(err)
	}
	if err := r.EnableCheckpoints(t.TempDir(), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreFile(path); err != nil {
		t.Fatal(err)
	}
	if r.Now() != 30*time.Minute {
		t.Errorf("restored clock at %v, want 30m", r.Now())
	}
	if err := r.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointWriteErrorLatches: a periodic file that cannot be
// written (the directory was replaced by a regular file) ends the run
// with a checkpoint-write error instead of being dropped silently.
func TestCheckpointWriteErrorLatches(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	c, err := New(Options{Seed: 5, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{Name: "svc", BaseRate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableCheckpoints(dir, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(15 * time.Minute); err == nil || !strings.Contains(err.Error(), "checkpoint write") {
		t.Fatalf("Run = %v, want a latched checkpoint-write error", err)
	}
	if c.LastCheckpoint() == nil {
		t.Error("the in-memory checkpoint should survive a failed file write")
	}
}

func TestCheckpointValidation(t *testing.T) {
	c, err := New(Options{Seed: 2, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableCheckpoints("", 0); err == nil {
		t.Error("zero interval should fail")
	}
	if err := c.EnableCheckpoints("", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableCheckpoints("", time.Minute); err == nil {
		t.Error("double enable should fail")
	}
	var buf bytes.Buffer
	if err := c.Checkpoint(&buf); err == nil {
		t.Error("checkpoint before the first Run should fail")
	}
	if err := c.AddService(ServiceOptions{Name: "svc", BaseRate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("svc", Constant(100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableCheckpoints("", time.Minute); err == nil {
		t.Error("enable after Run should fail")
	}
	if err := c.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("restore into a started cluster should fail")
	}

	other, err := New(Options{Seed: 3, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AddService(ServiceOptions{Name: "svc", BaseRate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := other.SetLoad("svc", Constant(100)); err != nil {
		t.Fatal(err)
	}
	if err := other.EnableCheckpoints("", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("seed mismatch not caught: %v", err)
	}
}

// TestCheckpointPolicyAliases: the checkpoint header carries the
// canonical policy name, so worlds built with "" and "EVOLVE" restore
// each other's checkpoints, while another policy is refused.
func TestCheckpointPolicyAliases(t *testing.T) {
	build := func(policy string) *Cluster {
		c, err := New(Options{Seed: 4, Nodes: 3, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddService(ServiceOptions{Name: "svc", BaseRate: 100}); err != nil {
			t.Fatal(err)
		}
		if err := c.SetLoad("svc", Constant(150)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, pair := range [][2]string{{"", "EVOLVE"}, {"EVOLVE", ""}} {
		src := build(pair[0])
		if err := src.Run(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := src.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if err := build("hpa").Restore(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "policy") {
			t.Errorf("%q checkpoint into hpa: %v, want a policy mismatch", pair[0], err)
		}
		dst := build(pair[1])
		if err := dst.Restore(&buf); err != nil {
			t.Fatalf("%q checkpoint into %q: %v", pair[0], pair[1], err)
		}
		if err := src.Run(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := dst.Run(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if a, b := src.Report().String(), dst.Report().String(); a != b {
			t.Errorf("%q → %q continuation differs:\n%s\nvs\n%s", pair[0], pair[1], a, b)
		}
	}
}

// TestRestoreAllOrNothing: a checkpoint with one flipped body byte (or
// cut short) is refused by its checksum before anything is applied, so
// the same cluster then restores the intact checkpoint and continues
// byte-identically to the uninterrupted run.
func TestRestoreAllOrNothing(t *testing.T) {
	whole := ckptWorld(t, 0, "mixed")
	if err := whole.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	want := ckptFingerprint(whole)

	half := ckptWorld(t, 0, "mixed")
	if err := half.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := half.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()

	resumed := ckptWorld(t, 0, "mixed")
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x10
	if err := resumed.Restore(bytes.NewReader(flipped)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("flipped byte: got %v, want a checksum error", err)
	}
	if err := resumed.Restore(bytes.NewReader(good[:len(good)-100])); err == nil {
		t.Fatal("truncated checkpoint restored without error")
	}
	if resumed.started || resumed.Now() != 0 || resumed.LastCheckpoint() != nil {
		t.Fatalf("failed restores touched the cluster: started=%v now=%v", resumed.started, resumed.Now())
	}
	if err := resumed.Restore(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact checkpoint after failed restores: %v", err)
	}
	if err := resumed.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := ckptFingerprint(resumed); got != want {
		t.Error("restore after a refused checkpoint diverged from the uninterrupted run")
	}
}

// TestCheckpointShardsZeroRestoresIntoOne: Shards 0 and 1 build the
// same one-shard kernel, so a checkpoint taken at Shards: 0 restores
// into a Shards: 1 world and continues byte-identically to the
// uninterrupted Shards: 0 run. A different shard count is refused
// before the world starts, leaving it fresh for the right checkpoint.
func TestCheckpointShardsZeroRestoresIntoOne(t *testing.T) {
	whole := ckptWorld(t, 0, "mixed")
	if err := whole.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	want := ckptFingerprint(whole)

	half := ckptWorld(t, 0, "mixed")
	if err := half.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := half.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}

	wrong := ckptWorld(t, 2, "mixed")
	if err := wrong.Restore(bytes.NewReader(snap.Bytes())); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("1-shard checkpoint into a 2-shard world: got %v, want a shard-count error", err)
	}
	if wrong.started || wrong.Now() != 0 {
		t.Fatalf("refused restore touched the cluster: started=%v now=%v", wrong.started, wrong.Now())
	}

	resumed := ckptWorld(t, 1, "mixed")
	if err := resumed.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := ckptFingerprint(resumed); got != want {
		t.Error("Shards: 1 world restored from a Shards: 0 checkpoint diverged from the uninterrupted run")
	}
}

// encodeWorld is a small traced world for the encode-cost checks; the
// ring capacity is below what two hours record, so it wraps.
func encodeWorld(tb testing.TB, horizon time.Duration) *Cluster {
	tb.Helper()
	c, err := New(Options{Seed: 9, Nodes: 2})
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{Name: "web", Archetype: "web", BaseRate: 200}); err != nil {
		tb.Fatal(err)
	}
	if err := c.SetLoad("web", Noisy(Diurnal(100, 400, time.Hour), 0.1, 3)); err != nil {
		tb.Fatal(err)
	}
	c.EnableTracing(2048)
	if err := c.Run(horizon); err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestCheckpointEncodeAllocs: encoding costs the same number of
// allocations after 10 minutes as after 2 hours of the same world —
// nothing allocates per metric sample or per trace-ring entry.
func TestCheckpointEncodeAllocs(t *testing.T) {
	allocs := func(horizon time.Duration) (float64, int) {
		c := encodeWorld(t, horizon)
		var n countWriter
		if err := c.Checkpoint(&n); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := c.Checkpoint(io.Discard); err != nil {
				t.Fatal(err)
			}
		}), int(n)
	}
	short, shortBytes := allocs(10 * time.Minute)
	long, longBytes := allocs(2 * time.Hour)
	if longBytes < 4*shortBytes {
		t.Fatalf("2h checkpoint is %d bytes, 10m %d: the world does not grow enough to test", longBytes, shortBytes)
	}
	if long != short {
		t.Errorf("Checkpoint allocations: %v after 10m (%d bytes), %v after 2h (%d bytes); want equal", short, shortBytes, long, longBytes)
	}
}

type countWriter int

func (n *countWriter) Write(p []byte) (int, error) {
	*n += countWriter(len(p))
	return len(p), nil
}

// BenchmarkCheckpoint measures encoding throughput of a two-hour traced
// world (MB/s of checkpoint).
func BenchmarkCheckpoint(b *testing.B) {
	c := encodeWorld(b, 2*time.Hour)
	var n countWriter
	if err := c.Checkpoint(&n); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Checkpoint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
