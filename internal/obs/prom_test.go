package obs

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/metrics"
)

// encodedLen returns the bytes ev occupies in the event ring.
func encodedLen(ev Event) int {
	var a ckpt.Appender
	saveEvent(&a, &ev)
	return len(a.Buf)
}

func TestWriteMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Series("app/web/latency-mean").Add(time.Second, 0.02)
	reg.Series("app/web/latency-mean").Add(2*time.Second, 0.05)
	reg.Series("app/web/alloc/cpu").Add(time.Second, 4000)
	reg.Series("cluster/usage/memory").Add(time.Second, 0.42)
	reg.Counter("sched/binds").Inc()
	reg.Counter("sched/binds").Inc()
	reg.Counter("plo/web/violations").Inc()
	reg.Counter("evictions/preempted").Inc()
	h := reg.Histogram("app/web/sli-hist", 1e-4, 1e3, 10)
	h.Observe(0.01)
	h.Observe(0.02)
	h.Observe(0.5)

	tr := New(8)
	tr.Record(Event{Kind: KindSched, Verb: VerbBind})

	var sb strings.Builder
	if err := WriteMetrics(&sb, reg, tr); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE evolve_app_latency_mean gauge",
		`evolve_app_latency_mean{app="web"} 0.05`, // latest sample, not the first
		`evolve_app_alloc{app="web",resource="cpu"} 4000`,
		`evolve_cluster_usage{resource="memory"} 0.42`,
		"# TYPE evolve_sched_binds_total counter",
		"evolve_sched_binds_total 2",
		`evolve_plo_violations_total{app="web"} 1`,
		`evolve_evictions_total{reason="preempted"} 1`,
		"# TYPE evolve_app_sli_hist histogram",
		`le="+Inf"} 3`,
		`evolve_app_sli_hist_count{app="web"} 3`,
		`evolve_app_sli_hist_sum{app="web"} 0.53`,
		"evolve_trace_events_total 1",
		"evolve_trace_dropped_total 0",
		"# TYPE evolve_trace_ring_bytes gauge",
		`evolve_trace_ring_bytes{ring="events"} ` + strconv.Itoa(encodedLen(Event{Seq: 1, Kind: KindSched, Verb: VerbBind})),
		`evolve_trace_ring_bytes{ring="spans"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}

	// Structural checks: every non-comment line is "name[{labels}] value",
	// every family has exactly one TYPE line, output is deterministic.
	types := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			types[parts[2]]++
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
	for fam, n := range types {
		if n != 1 {
			t.Errorf("family %s has %d TYPE lines", fam, n)
		}
	}
	var sb2 strings.Builder
	if err := WriteMetrics(&sb2, reg, tr); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("exposition is not deterministic across calls")
	}
}

func TestWriteMetricsDisabledTracer(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Series("cluster/pods").Add(time.Second, 3)
	var sb strings.Builder
	if err := WriteMetrics(&sb, reg, Nop()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "evolve_trace_") {
		t.Error("disabled tracer leaked trace meters into the exposition")
	}
	if !strings.Contains(sb.String(), "evolve_cluster_pods 3") {
		t.Errorf("missing series gauge:\n%s", sb.String())
	}
}

func TestPromName(t *testing.T) {
	cases := []struct {
		in, fam, labels string
	}{
		{"app/web/latency-mean", "evolve_app_latency_mean", `{app="web"}`},
		{"app/web/alloc/cpu", "evolve_app_alloc", `{app="web",resource="cpu"}`},
		{"cluster/usage/memory", "evolve_cluster_usage", `{resource="memory"}`},
		{"plo/web/violations", "evolve_plo_violations", `{app="web"}`},
		{"evictions/preempted", "evolve_evictions", `{reason="preempted"}`},
		{"sched/binds", "evolve_sched_binds", ""},
		{"cluster/pods", "evolve_cluster_pods", ""},
		{"batch/makespan", "evolve_batch_makespan", ""},
	}
	for _, c := range cases {
		fam, labels := promName(c.in)
		if fam != c.fam || labels != c.labels {
			t.Errorf("promName(%q) = %q,%q; want %q,%q", c.in, fam, labels, c.fam, c.labels)
		}
	}
}

// TestWriteMetricsExtraMeters: extra meters join the exposition as
// counters (names ending in _total) or gauges, sorted with the rest.
func TestWriteMetricsExtraMeters(t *testing.T) {
	var sb strings.Builder
	if err := WriteMetrics(&sb, metrics.NewRegistry(), Nop(), Meter{Name: "evolve_b_total", Value: 3}, Meter{Name: "evolve_a_bytes", Value: 7}); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE evolve_a_bytes gauge\nevolve_a_bytes 7\n# TYPE evolve_b_total counter\nevolve_b_total 3\n"
	if sb.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}
