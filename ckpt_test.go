package evolve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/cluster"
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
// event log, every series' retained window, trace ring and span ring —
// into one comparable string.
func ckptFingerprint(c *Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n--events--\n%+v\n", c.Report(), c.Events())
	for _, name := range c.SeriesNames() {
		s, err := c.SeriesSamples(name)
		fmt.Fprintf(&b, "--series %s (%v)--\n%v\n", name, err, s)
	}
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
// run → checkpoint → restore into a fresh world → continue to 60m is
// byte-identical (report, events, trace, spans) to the same world run
// uninterrupted, across the full shard matrix with chaos on and off. It
// checkpoints at 30m, a control step, and at 31m40s, 10s into a 15s
// control period, where the sensor window the next Observe averages
// holds samples. In -short mode the matrix shrinks to its corners.
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

				for _, at := range []time.Duration{30 * time.Minute, 31*time.Minute + 40*time.Second} {
					half := ckptWorld(t, shards, chaos)
					if err := half.Run(at); err != nil {
						t.Fatal(err)
					}
					var snap bytes.Buffer
					if err := half.Checkpoint(&snap); err != nil {
						t.Fatal(err)
					}
					if at%(15*time.Second) != 0 {
						if o, err := half.w.Cluster.Observe("web"); err != nil || o.Samples == 0 {
							t.Fatalf("sensor window at %v: %d samples, %v; want a non-empty window", at, o.Samples, err)
						}
					}

					resumed := ckptWorld(t, shards, chaos)
					if err := resumed.Restore(bytes.NewReader(snap.Bytes())); err != nil {
						t.Fatal(err)
					}
					if resumed.Now() != at {
						t.Fatalf("restored clock at %v, want %v", resumed.Now(), at)
					}
					if err := resumed.Run(time.Hour - at); err != nil {
						t.Fatal(err)
					}
					got := ckptFingerprint(resumed)
					if got != want {
						i := 0
						for i < len(got) && i < len(want) && got[i] == want[i] {
							i++
						}
						lo := max(0, i-200)
						t.Errorf("restored at %v, the run diverged from the uninterrupted run at byte %d:\n--- uninterrupted\n…%s\n--- restored\n…%s",
							at, i, want[lo:min(len(want), i+200)], got[lo:min(len(got), i+200)])
					}
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

// TestCheckpointPruneErrorLatches: a stale checkpoint file that cannot
// be deleted (here a non-empty directory with a checkpoint's name) fails
// the run like a failed write, once the newest file is durable.
func TestCheckpointPruneErrorLatches(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "ckpt-000000000000.evck", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
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
	if err := c.Run(25 * time.Minute); err == nil || !strings.Contains(err.Error(), "checkpoint prune") {
		t.Fatalf("Run = %v, want a latched checkpoint-prune error", err)
	}
	if c.Now() != 20*time.Minute {
		t.Errorf("run stopped at %v, want 20m: the first prune with a stale file to delete", c.Now())
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-000000001200.evck")); err != nil {
		t.Errorf("the newest checkpoint should be durable before the prune: %v", err)
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

// TestReportDoesNotCreateSeries: reading the report before the first
// tick leaves the world as it was — no series, counter or burn
// accounting appears, and the next checkpoint holds the same bytes.
func TestReportDoesNotCreateSeries(t *testing.T) {
	c := fuzzWorld(t)
	if err := c.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	checkpoint := func() []byte {
		var buf bytes.Buffer
		if err := c.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	names, before := c.SeriesNames(), checkpoint()
	_ = c.Report()
	if after := c.SeriesNames(); len(after) != len(names) {
		t.Errorf("Report changed the series from %q to %q", names, after)
	}
	if after := checkpoint(); !bytes.Equal(after, before) {
		t.Errorf("Report changed the checkpoint from %d to %d bytes", len(before), len(after))
	}
}

// TestRestoreRefusesKernelClocks: the kernel record holds the shard
// count, the shard clock and the fan-out's round counters once. A
// resealed checkpoint whose record the fan-out tick could not have
// written is refused before the world starts, and the same world then
// restores the intact checkpoint.
func TestRestoreRefusesKernelClocks(t *testing.T) {
	const shards = 4
	half := ckptWorld(t, shards, "")
	if err := half.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := half.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	blob := snap.Bytes()

	type record struct {
		shards int
		ks     cluster.KernelState
	}
	encode := func(k record) []byte {
		var a ckpt.Appender
		a.Int(k.shards)
		a.Dur(k.ks.Clock)
		a.U64(k.ks.Rounds)
		a.U64(k.ks.ParRounds)
		a.U64(k.ks.RoundsMark)
		a.U64(k.ks.ParMark)
		return a.Buf
	}
	good := record{shards, half.w.Cluster.KernelState()}
	if good.ks.Rounds == 0 || good.ks.Clock != 30*time.Minute {
		t.Fatalf("kernel state after 30m: %+v", good.ks)
	}
	enc := encode(good)
	off := bytes.Index(blob, enc)
	if off < 0 || bytes.Count(blob, enc) != 1 {
		t.Fatalf("kernel record found %d times in the checkpoint", bytes.Count(blob, enc))
	}

	for _, tc := range []struct {
		name   string
		mutate func(*record)
		want   string
	}{
		{"shard count", func(k *record) { k.shards = 2 }, "kernel shards"},
		{"parallel rounds > rounds", func(k *record) { k.ks.ParRounds = k.ks.Rounds + 1 }, "parallel rounds"},
		{"rounds mark > rounds", func(k *record) { k.ks.RoundsMark = k.ks.Rounds + 1 }, "round marks"},
		{"parallel mark > parallel rounds", func(k *record) { k.ks.ParMark = k.ks.ParRounds + 1 }, "round marks"},
		{"shard clock after clock", func(k *record) { k.ks.Clock += time.Second }, "later than"},
	} {
		k := good
		tc.mutate(&k)
		bad := bytes.Clone(blob)
		copy(bad[off:], encode(k))
		ckpt.Seal(bad)
		fresh := ckptWorld(t, shards, "")
		if err := fresh.Restore(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore returned %v, want an error containing %q", tc.name, err, tc.want)
			continue
		}
		if fresh.started || fresh.Now() != 0 {
			t.Errorf("%s: refused restore touched the cluster: started=%v now=%v", tc.name, fresh.started, fresh.Now())
			continue
		}
		if err := fresh.Restore(bytes.NewReader(blob)); err != nil {
			t.Errorf("%s: intact checkpoint after the refused one: %v", tc.name, err)
		}
	}
}

// TestRestoreRefusesPodOnUnknownNode: the tick looks a bound pod's node
// and a replica's service up without a check, so a resealed checkpoint
// whose pod record names a node or service this world lacks fails
// Restore with an error naming the pod and the missing object, instead
// of panicking the first tick. The failure is latched: Run returns it
// and the refused world does not advance.
func TestRestoreRefusesPodOnUnknownNode(t *testing.T) {
	src := ckptWorld(t, 0, "")
	if err := src.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()
	var pod *cluster.PodObject
	for _, p := range src.w.Cluster.Pods() {
		if p.App == "web" && !p.IsTask() && p.Node != "" {
			pod = p
			break
		}
	}
	if pod == nil {
		t.Fatal("no bound web replica at 30m")
	}
	// A pod record opens with the length-prefixed name, the version,
	// then the length-prefixed app and node names.
	str := func(s string) []byte { return append(binary.LittleEndian.AppendUint64(nil, uint64(len(s))), s...) }
	head, tail := str(pod.Name), append(str(pod.App), str(pod.Node)...)
	app := -1
	for off := 0; ; {
		i := bytes.Index(good[off:], head)
		if i < 0 {
			break
		}
		i += off
		if rest := good[i+len(head):]; len(rest) > 8 && bytes.HasPrefix(rest[8:], tail) {
			if app >= 0 {
				t.Fatalf("pod record of %s found twice", pod.Name)
			}
			app = i + len(head) + 8 + 8
		}
		off = i + 1
	}
	if app < 0 {
		t.Fatalf("no pod record of %s on %s in the checkpoint", pod.Name, pod.Node)
	}

	for _, tc := range []struct {
		name string
		at   int
		was  string
	}{
		{"node", app + len(pod.App) + 8, pod.Node},
		{"service", app, pod.App},
	} {
		bad := bytes.Clone(good)
		bad[tc.at] = 'Z'
		ghost := "Z" + tc.was[1:]
		ckpt.Seal(bad)
		dst := ckptWorld(t, 0, "")
		err := dst.Restore(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), pod.Name) || !strings.Contains(err.Error(), tc.name+" "+ghost) {
			t.Errorf("unknown %s: Restore = %v, want an error naming pod %s and %s %s", tc.name, err, pod.Name, tc.name, ghost)
			continue
		}
		now := dst.Now()
		if runErr := dst.Run(time.Minute); runErr == nil || !strings.Contains(runErr.Error(), ghost) {
			t.Errorf("unknown %s: Run after the failed Restore = %v, want the restore error", tc.name, runErr)
		}
		if dst.Now() != now {
			t.Errorf("unknown %s: the refused world advanced from %v to %v", tc.name, now, dst.Now())
		}
	}
	if err := ckptWorld(t, 0, "").Restore(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
}

// encodeWorld is a small traced world for the encode-cost checks; the
// ring capacity is below what two hours record, so it wraps. It retains
// two hours of telemetry, so its metric history grows with the horizon.
func encodeWorld(tb testing.TB, horizon time.Duration) *Cluster {
	tb.Helper()
	c, err := New(Options{Seed: 9, Nodes: 2, History: 2 * time.Hour})
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

// TestCheckpointGaugesOnMetrics: /metrics reports the periodic
// checkpoint count and the newest checkpoint's size — zero before the
// first firing, then the count and LastCheckpoint's length — plus the
// bytes each tracer ring holds. A world without periodic checkpoints
// exports no checkpoint meters.
func TestCheckpointGaugesOnMetrics(t *testing.T) {
	scrape := func(c *Cluster) string {
		var b bytes.Buffer
		if err := c.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	expect := func(when, out string, want ...string) {
		for _, w := range want {
			if !strings.Contains(out, w+"\n") {
				t.Errorf("%s: exposition lacks %q", when, w)
			}
		}
	}
	c := ckptWorld(t, 0, "")
	if err := c.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	expect("before the first checkpoint", scrape(c),
		"# TYPE evolve_checkpoints_total counter", "evolve_checkpoints_total 0",
		"# TYPE evolve_checkpoint_last_bytes gauge", "evolve_checkpoint_last_bytes 0")
	if err := c.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	events, spans := c.Tracer().RingBytes()
	if events == 0 || spans == 0 {
		t.Fatalf("ring bytes %d/%d after 15 minutes of tracing", events, spans)
	}
	expect("after one checkpoint", scrape(c),
		"evolve_checkpoints_total 1",
		"evolve_checkpoint_last_bytes "+strconv.Itoa(len(c.LastCheckpoint())),
		`evolve_trace_ring_bytes{ring="events"} `+strconv.Itoa(events),
		`evolve_trace_ring_bytes{ring="spans"} `+strconv.Itoa(spans))

	plain, err := New(Options{Seed: 21, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out := scrape(plain); strings.Contains(out, "evolve_checkpoint") {
		t.Errorf("world without periodic checkpoints exports checkpoint meters:\n%s", out)
	}
}

// wrappedCkptWorld is a small traced world that checkpoints every 10
// minutes, into dir when it is not empty. It runs whole checkpoint
// intervals until both tracer rings, of the given capacity, have
// wrapped, so the last firing referenced chunks the rings have since
// kept recording around.
func wrappedCkptWorld(tb testing.TB, capacity int, dir string) *Cluster {
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
	c.EnableTracing(capacity)
	if err := c.EnableCheckpoints(dir, 10*time.Minute); err != nil {
		tb.Fatal(err)
	}
	for c.Tracer().Dropped() == 0 || c.Tracer().SpansDropped() == 0 {
		if err := c.Run(10 * time.Minute); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// TestPeriodicCheckpointAllocs is the allocation gate of a periodic
// firing once the rings have wrapped: a window of two ticks around one
// firing allocates at most the checkpoint's non-tracer bytes plus
// (new chunks + 2) chunks — whatever the size of the rings, whose
// chunks the checkpoint references instead of copying. In two ticks each
// ring starts at most one new chunk; the other two chunks cover the
// segment list, the controller-state blob and the ticks themselves. A
// firing encodes the non-tracer sections into the buffers of the
// checkpoint before last, so it allocates far less than the bound; those
// buffers must in turn stay the size of the non-tracer bytes.
func TestPeriodicCheckpointAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short")
	}
	for _, capacity := range []int{2048, 16384} {
		c := wrappedCkptWorld(t, capacity, "")
		// Stop one tick short of the next firing, then run across it.
		if err := c.Run(10*time.Minute - 5*time.Second); err != nil {
			t.Fatal(err)
		}
		count, _ := c.CheckpointStats()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n, _ := c.CheckpointStats(); n != count+1 {
			t.Fatalf("cap %d: %d firings in the window, want 1", capacity, n-count)
		}
		size := c.lastCkpt.Len()
		events, spans := c.Tracer().RingBytes()
		nonTracer := size - events - spans
		const newChunks = 2
		bound := nonTracer + (newChunks+2)*ckpt.ChunkSize
		got := int(after.TotalAlloc - before.TotalAlloc)
		t.Logf("cap %d: checkpoint %d bytes (%d outside the rings); the firing's window allocated %d bytes, bound %d", capacity, size, nonTracer, got, bound)
		if got > bound {
			t.Errorf("cap %d: a periodic firing allocated %d bytes for a %d-byte checkpoint, want at most %d (%d non-tracer bytes + %d chunks)",
				capacity, got, size, bound, nonTracer, newChunks+2)
		}
		// The encode buffers, reused from firing to firing, hold the
		// non-tracer bytes only: every buffer but the last holds at
		// least a chunk, in a buffer of a chunk and an eighth.
		own := 0
		for _, b := range c.ckptBufs {
			own += cap(b)
		}
		if limit := nonTracer*9/8 + 2*ckpt.ChunkSize; own > limit {
			t.Errorf("cap %d: the checkpoint's encode buffers hold %d bytes for %d non-tracer bytes, want at most %d: the rings are copied, not referenced",
				capacity, own, nonTracer, limit)
		}
		if capacity == 16384 && size < 4*bound {
			t.Fatalf("a %d-byte checkpoint is too small to tell referencing from copying", size)
		}
	}
}

// BenchmarkPeriodicCheckpoint measures one periodic firing — the
// controller-state capture, the encode into segments and the stats — on
// a traced world whose default-capacity rings have wrapped (MB/s of
// checkpoint, allocations per firing). Before each firing, outside the
// timer, it records a checkpoint interval's worth of trace records, so
// the firing sums the rings' changed chunks as a real one does.
func BenchmarkPeriodicCheckpoint(b *testing.B) {
	c := wrappedCkptWorld(b, obs.DefaultCapacity, "")
	b.SetBytes(int64(c.lastCkpt.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for n := 0; n < 560; n++ {
			c.Tracer().Record(obs.Event{At: c.Now(), Kind: obs.KindSched, Verb: obs.VerbBind, App: "web", Object: "web-" + strconv.Itoa(n), Node: "node-1"})
		}
		b.StartTimer()
		c.takeCheckpoint()
	}
	if err := c.err(); err != nil {
		b.Fatal(err)
	}
}

// TestCheckpointSurfacesAgree: on a traced world whose rings have
// wrapped past chunks earlier firings referenced, a checkpoint taken the
// way the periodic timer takes one, LastCheckpoint, a Checkpoint at the
// same instant and the file the checkpoint directory gained are the
// same bytes. (The state at the end of a Run that stops on a firing
// instant can differ from the firing's: other timers of that instant
// run after it.)
func TestCheckpointSurfacesAgree(t *testing.T) {
	dir := t.TempDir()
	c := wrappedCkptWorld(t, 512, dir)
	if err := c.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	c.takeCheckpoint()
	if err := c.err(); err != nil {
		t.Fatal(err)
	}
	last := c.LastCheckpoint()
	var buf bytes.Buffer
	if err := c.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	path, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("ckpt-%012d.evck", int64(c.Now()/time.Second)); filepath.Base(path) != want {
		t.Fatalf("newest checkpoint file %s, want %s", path, want)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(last, buf.Bytes()) || !bytes.Equal(last, file) {
		t.Fatalf("at %v: LastCheckpoint (%d bytes), Checkpoint (%d) and %s (%d) differ", c.Now(), len(last), buf.Len(), path, len(file))
	}
}

// TestCheckpointWriteRemovesTempFile: a checkpoint file that cannot be
// renamed into place (a non-empty directory has its name) ends the run
// with the latched checkpoint-write error and leaves no temporary file.
func TestCheckpointWriteRemovesTempFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "ckpt-000000000600.evck", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
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
	if err := c.Run(15 * time.Minute); err == nil || !strings.Contains(err.Error(), "checkpoint write") {
		t.Fatalf("Run = %v, want a latched checkpoint-write error", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temporary files left behind: %v", tmps)
	}
}
