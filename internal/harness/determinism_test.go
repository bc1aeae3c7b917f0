package harness

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"evolve/internal/cluster"
	"evolve/internal/obs"
)

// The sharded kernel's headline guarantee: the same scenario replays
// byte-identically at every shard count — Reports and trace streams
// alike — chaos on or off, traced or not. These tests pin that
// guarantee; shard.go documents the phase/barrier discipline that earns
// it. Every run also re-derives the tick's dense state from the object
// graph after each metrics tick (Cluster.CheckInvariants), so a cache
// that drifts fails here even when every shard count drifts the same
// way. The multi-shard sweeps run as "batched" subtests: batched rounds
// (one coordinator round per phase) are the kernel's round protocol.

// invariantHooks arms Cluster.CheckInvariants after every metrics tick
// of a harness run: an engine Every at MetricsInterval, armed at t=0 so
// each firing lands right behind the tick at the same timestamp. The
// first failure is reported; later ones would only repeat it.
func invariantHooks(t *testing.T) []Hook {
	failed := false
	return []Hook{{At: 0, Do: func(c *cluster.Cluster) {
		c.Engine().Every(c.Config().MetricsInterval, func() {
			if failed {
				return
			}
			if err := c.CheckInvariants(); err != nil {
				failed = true
				t.Errorf("t=%v: %v", c.Engine().Now(), err)
			}
		})
	}}}
}

// determinismScenario is a reduced-scale converged mix: interactive
// services, batch DAGs and rigid HPC gangs contending on five nodes,
// with measurement noise so the per-app random streams are exercised
// and staggered startup delays so the hot-state readiness horizons are.
func determinismScenario(seed int64, chaosPlan string) Scenario {
	sc := BuildScenario(MixConverged, seed)
	sc.Duration = 30 * time.Minute
	sc.Warmup = 5 * time.Minute
	sc.MeasurementNoise = 0.05
	sc.Chaos = chaosPlan
	// Staggered startup delays: scale-ups produce replicas that bind now
	// but serve later, so the dense path's cached readiness horizons
	// (rebuild-on-expiry) are load-bearing in this suite.
	for i := range sc.Apps {
		sc.Apps[i].Spec.StartupDelay = time.Duration(15*(1+i%3)) * time.Second
	}
	// Resubmit the background streams on a cadence that fits the short
	// run (the standard streams mostly land after the 30m horizon).
	sc.BatchJobs = BatchStream(3, 7*time.Minute, 1)
	sc.HPCJobs = HPCStream(4, 6*time.Minute, 6)
	return sc
}

// chaosEverything lands every fault kind inside the 30m horizon.
const chaosEverything = "node-crash@12m-18m:node=node-0;metric-drop@5m:p=0.2;" +
	"act-reject@6m:p=0.25;metric-spike@8m:p=0.05,mag=1.5;act-delay@7m:p=0.2,delay=10s"

// runFingerprint executes the scenario under the EVOLVE policy with
// trace and span sinks attached and the invariant checker armed, and
// returns three byte-exact artefacts: the rendered Report (minus the cluster pointer), the full
// JSONL trace stream, and the span stream with the Shard attribution
// masked. Shard is the one span field allowed to vary with the shard
// count (it names which shard owned the app); everything else —
// IDs, parent links, kinds, intervals, payloads — must be identical,
// so the masked re-serialisation is compared byte for byte. %+v
// formatting round-trips float64 (shortest representation is
// injective), so string equality is bit equality.
func runFingerprint(t *testing.T, sc Scenario) (report, trace, spans string) {
	t.Helper()
	var buf, spanBuf bytes.Buffer
	tr := obs.New(1 << 15)
	tr.SetSink(&buf)
	tr.SetSpanSink(&spanBuf)
	res, err := runScenario(sc, StandardPolicies()[0], invariantHooks(t), tr)
	if err != nil {
		t.Fatalf("runScenario(shards=%d): %v", sc.Shards, err)
	}
	if err := tr.SinkErr(); err != nil {
		t.Fatalf("trace sink: %v", err)
	}
	if err := tr.SpanSinkErr(); err != nil {
		t.Fatalf("span sink: %v", err)
	}
	res.Cluster = nil
	return fmt.Sprintf("%+v", *res), buf.String(), maskSpanShards(t, &spanBuf)
}

// maskSpanShards parses a span JSONL stream, zeroes the Shard field
// and re-serialises, yielding the shard-count-invariant fingerprint.
func maskSpanShards(t *testing.T, buf *bytes.Buffer) string {
	t.Helper()
	sps, err := obs.ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading span stream: %v", err)
	}
	for i := range sps {
		sps[i].Shard = 0
	}
	var out bytes.Buffer
	if err := obs.WriteSpansJSONL(&out, sps); err != nil {
		t.Fatalf("re-serialising span stream: %v", err)
	}
	return out.String()
}

// runReportOnly executes the scenario with no tracer attached (and the
// invariant checker armed) and returns the byte-exact Report.
func runReportOnly(t *testing.T, sc Scenario) string {
	t.Helper()
	res, err := runScenario(sc, StandardPolicies()[0], invariantHooks(t), nil)
	if err != nil {
		t.Fatalf("runScenario(shards=%d, untraced): %v", sc.Shards, err)
	}
	res.Cluster = nil
	return fmt.Sprintf("%+v", *res)
}

var shardCounts = []int{2, 4, 7, 16}

// TestShardedRunsByteIdentical replays the converged scenario at shard
// counts {1, 2, 4, 7, 16}, chaos off and on, and demands byte-identical
// Reports and trace streams against the 1-shard baseline, with the
// invariant checker passing after every tick of every run.
func TestShardedRunsByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan string
	}{
		{"fault-free", ""},
		{"chaos", chaosEverything},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := determinismScenario(101, tc.plan)
			base.Shards = 1
			wantReport, wantTrace, wantSpans := runFingerprint(t, base)
			if wantTrace == "" {
				t.Fatal("baseline produced an empty trace stream")
			}
			if wantSpans == "" {
				t.Fatal("baseline produced an empty span stream")
			}
			t.Run("batched", func(t *testing.T) {
				for _, shards := range shardCounts {
					sc := determinismScenario(101, tc.plan)
					sc.Shards = shards
					sc.ShardWorkers = 1
					// The control plane shards along for the ride: its
					// evaluate/apply split must not move a byte either.
					sc.CtrlWorkers = shards
					gotReport, gotTrace, gotSpans := runFingerprint(t, sc)
					if gotReport != wantReport {
						t.Errorf("shards=%d: Report diverged from 1-shard baseline\n got: %s\nwant: %s",
							shards, gotReport, wantReport)
					}
					if gotTrace != wantTrace {
						t.Errorf("shards=%d: trace stream diverged from 1-shard baseline (%d vs %d bytes)",
							shards, len(gotTrace), len(wantTrace))
					}
					if gotSpans != wantSpans {
						t.Errorf("shards=%d: span stream diverged from 1-shard baseline (%d vs %d bytes)",
							shards, len(gotSpans), len(wantSpans))
					}
				}
			})
		})
	}
}

// TestShardedUntracedByteIdentical is the same gate with no tracer
// attached: every Report must match the untraced 1-shard baseline byte
// for byte, and the traced run's Report too — tracing observes the
// world, it must not change it.
func TestShardedUntracedByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan string
	}{
		{"fault-free", ""},
		{"chaos", chaosEverything},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := determinismScenario(101, tc.plan)
			base.Shards = 1
			wantReport := runReportOnly(t, base)
			if traced, _, _ := runFingerprint(t, base); traced != wantReport {
				t.Errorf("traced Report diverged from untraced\n got: %s\nwant: %s", traced, wantReport)
			}
			t.Run("batched", func(t *testing.T) {
				for _, shards := range shardCounts {
					sc := determinismScenario(101, tc.plan)
					sc.Shards = shards
					sc.ShardWorkers = 1
					if got := runReportOnly(t, sc); got != wantReport {
						t.Errorf("shards=%d: untraced Report diverged from 1-shard baseline\n got: %s\nwant: %s",
							shards, got, wantReport)
					}
				}
			})
		})
	}
}

// TestCtrlWorkersByteIdentical is the control-plane analogue of the
// kernel gate: the converged scenario replays byte-identically —
// Report, trace stream, masked span stream — at control-plane worker
// counts {2, 4, 7} against the 1-worker baseline, on both the 1-shard and
// 4-shard kernels, chaos off and on. The worker counts cross the app
// count on purpose (7 workers over a handful of apps exercises the
// clamp); under `go test -race` this is also the race gate for the
// evaluate fan-out and the batched backlog drain.
func TestCtrlWorkersByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan string
	}{
		{"fault-free", ""},
		{"chaos", chaosEverything},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := determinismScenario(303, tc.plan)
			base.CtrlWorkers = 1 // inline evaluate
			wantReport, wantTrace, wantSpans := runFingerprint(t, base)
			if wantTrace == "" || wantSpans == "" {
				t.Fatal("baseline produced an empty trace or span stream")
			}
			for _, shards := range []int{1, 4} {
				for _, workers := range []int{2, 4, 7} {
					sc := determinismScenario(303, tc.plan)
					sc.Shards = shards
					sc.ShardWorkers = 1
					sc.CtrlWorkers = workers
					gotReport, gotTrace, gotSpans := runFingerprint(t, sc)
					if gotReport != wantReport {
						t.Errorf("shards=%d ctrl-workers=%d: Report diverged from 1-worker baseline\n got: %s\nwant: %s",
							shards, workers, gotReport, wantReport)
					}
					if gotTrace != wantTrace {
						t.Errorf("shards=%d ctrl-workers=%d: trace stream diverged (%d vs %d bytes)",
							shards, workers, len(gotTrace), len(wantTrace))
					}
					if gotSpans != wantSpans {
						t.Errorf("shards=%d ctrl-workers=%d: span stream diverged (%d vs %d bytes)",
							shards, workers, len(gotSpans), len(wantSpans))
					}
				}
			}
		})
	}
}

// TestShardedParallelWorkersDeterministic pins worker-count invariance:
// with 4 shards, ticking same-timestamp shards in parallel (4 workers)
// must produce the same bytes as serial rounds (1 worker). Under
// `go test -race` this is also the race gate for the parallel phase
// fan-out across the cluster, chaos and metrics layers.
func TestShardedParallelWorkersDeterministic(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		base := determinismScenario(202, chaosEverything)
		base.Shards = 4
		base.ShardWorkers = 1
		wantReport, wantTrace, wantSpans := runFingerprint(t, base)

		par := determinismScenario(202, chaosEverything)
		par.Shards = 4
		par.ShardWorkers = 4
		gotReport, gotTrace, gotSpans := runFingerprint(t, par)

		if gotReport != wantReport {
			t.Errorf("parallel workers: Report diverged\n got: %s\nwant: %s", gotReport, wantReport)
		}
		if gotTrace != wantTrace {
			t.Errorf("parallel workers: trace stream diverged (%d vs %d bytes)", len(gotTrace), len(wantTrace))
		}
		if gotSpans != wantSpans {
			t.Errorf("parallel workers: span stream diverged (%d vs %d bytes)", len(gotSpans), len(wantSpans))
		}
	})
}

// TestShardedParallelWorkersUntraced is the same worker-invariance gate
// with no tracer attached: 4 workers racing the phase fan-out.
func TestShardedParallelWorkersUntraced(t *testing.T) {
	base := determinismScenario(202, chaosEverything)
	base.Shards = 4
	base.ShardWorkers = 1
	wantReport := runReportOnly(t, base)

	par := determinismScenario(202, chaosEverything)
	par.Shards = 4
	par.ShardWorkers = 4
	gotReport := runReportOnly(t, par)

	if gotReport != wantReport {
		t.Errorf("parallel workers (untraced): Report diverged\n got: %s\nwant: %s", gotReport, wantReport)
	}
}
