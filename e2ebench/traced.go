package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"evolve/internal/obs"
	"evolve/internal/perf"
)

// The traced run splits one run's wall time over the simulator's layers
// by timing calls into each layer from outside. Its additive figures,
// all in wall milliseconds per simulated hour after set-up, sum to the
// traced run's wall time (traced_ms_per_sim_hour):
//
//	cluster.tick   Run slice wall minus control and drain (mirror only)
//	sched.drain    the tick's pending-pod drain (mirror only)
//	control        control periods, evaluate plus apply (mirror only)
//	ckpt           periodic checkpoint encoding inside Run, estimated by
//	               re-encoding the same world at each slice boundary
//	obs.sink       trace and span sink writes
//	probe          the benchmark's own boundary calls: the extra
//	               Checkpoint, the /metrics scrape and the Report
//	unattributed   everything else: work inside Run no hook covers,
//	               plus the benchmark's bookkeeping between slices

// layerSplit accumulates a traced run's additive wall-time split.
type layerSplit struct {
	start, prev time.Time
	slices      []float64 // ms per Run slice
	sliceNs     int64
	tickNs      int64
	drainNs     int64
	ctrlNs      int64
	ckptNs      int64
	sinkNs      int64
	probeNs     int64
}

func newSplit() *layerSplit {
	now := time.Now()
	return &layerSplit{start: now, prev: now}
}

// slice runs one Run slice through fn and records its wall time.
func (s *layerSplit) slice(fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.slices = append(s.slices, ms(d))
	s.sliceNs += d.Nanoseconds()
	s.prev = t0.Add(d)
	return err
}

// probe runs fn as boundary probe work and returns its wall time.
func (s *layerSplit) probe(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s.probeNs += d.Nanoseconds()
	s.prev = t0.Add(d)
	return d
}

// metrics renders the split per simulated hour. The remainder inside
// Run slices that no hook covers is unattributed, as is the time
// between boundary calls.
func (s *layerSplit) metrics(hours float64, out map[string]metric) {
	total := s.prev.Sub(s.start).Nanoseconds()
	per := func(ns int64) float64 { return float64(ns) / 1e6 / hours }
	attributed := s.tickNs + s.drainNs + s.ctrlNs + s.ckptNs + s.sinkNs + s.probeNs
	out["traced_ms_per_sim_hour"] = metric{per(total), "ms"}
	out["cluster.tick_ms_per_sim_hour"] = metric{per(s.tickNs), "ms"}
	out["sched.drain_ms_per_sim_hour"] = metric{per(s.drainNs), "ms"}
	out["control.ms_per_sim_hour"] = metric{per(s.ctrlNs), "ms"}
	out["ckpt.ms_per_sim_hour"] = metric{per(s.ckptNs), "ms"}
	out["obs.sink_ms_per_sim_hour"] = metric{per(s.sinkNs), "ms"}
	out["probe_ms_per_sim_hour"] = metric{per(s.probeNs), "ms"}
	out["unattributed_ms_per_sim_hour"] = metric{per(total - attributed), "ms"}
	out["sim.slices"] = metric{float64(len(s.slices)), "count"}
	out["sim.slice_ms_p50"] = metric{percentile(s.slices, 50), "ms"}
	out["sim.slice_ms_p99"] = metric{percentile(s.slices, 99), "ms"}
}

// runtimeWindow brackets a traced run's runtime counters.
type runtimeWindow struct {
	rt0   runtimeSample
	pause uint64
}

func openRuntime() runtimeWindow {
	return runtimeWindow{pause: gcPauseNs(), rt0: readRuntime()}
}

func (r runtimeWindow) close(out map[string]metric) {
	rt := readRuntime()
	pause := gcPauseNs()
	frac := 0.0
	if cpu := rt.totalCPU - r.rt0.totalCPU; cpu > 0 {
		frac = (rt.gcCPU - r.rt0.gcCPU) / cpu
	}
	out["runtime.gc_cpu_frac"] = metric{frac, "ratio"}
	out["runtime.gc_cycles"] = metric{float64(rt.gcCycles - r.rt0.gcCycles), "count"}
	out["runtime.gc_pause_ms_total"] = metric{float64(pause-r.pause) / 1e6, "ms"}
	out["runtime.heap_live_mb_end"] = metric{float64(rt.liveHeap) / mb, "MB"}
}

// perLayerNames lists every per-layer metric, so each traced run prints
// the same set: a layer a workload's traced run does not reach reads 0.
var perLayerNames = map[string]string{
	"traced_ms_per_sim_hour": "ms", "cluster.tick_ms_per_sim_hour": "ms",
	"sched.drain_ms_per_sim_hour": "ms", "control.ms_per_sim_hour": "ms",
	"ckpt.ms_per_sim_hour": "ms", "obs.sink_ms_per_sim_hour": "ms",
	"probe_ms_per_sim_hour": "ms", "unattributed_ms_per_sim_hour": "ms",
	"untraced_ms_per_sim_hour": "ms", "tracing_overhead": "ratio",
	"sim.slices": "count", "sim.slice_ms_p50": "ms", "sim.slice_ms_p99": "ms",
	"cluster.p1_ms": "ms", "cluster.p2_ms": "ms", "cluster.flush_apps_ms": "ms",
	"cluster.p3_ms": "ms", "cluster.flush_nodes_ms": "ms",
	"sim.barrier_ms": "ms", "sim.mailbox_ms": "ms",
	"sched.setup_place_s": "s", "sched.binds": "count", "sched.unschedulable": "count",
	"sched.preemptions": "count", "sched.gangs": "count",
	"control.eval_ms_per_period": "ms", "control.apply_ms_per_period": "ms",
	"control.observe_us": "us", "control.actuate_us": "us", "core.decide_us": "us",
	"control.periods": "count", "control.decisions": "count", "control.retries": "count",
	"control.abandoned": "count", "control.degraded_periods": "count",
	"metrics.series": "count", "metrics.samples": "count",
	"metrics.scrape_ms": "ms", "metrics.scrape_bytes": "bytes", "report_ms": "ms",
	"ckpt.encode_ms_p50": "ms", "ckpt.encode_ms_p90": "ms", "ckpt.count": "count",
	"ckpt.bytes_total": "bytes", "ckpt.bytes_last": "bytes",
	"ckpt.restore_ms": "ms", "ckpt.continue_ms": "ms",
	"obs.sink_bytes": "bytes", "obs.events": "count", "obs.spans": "count", "obs.dropped": "count",
	"runtime.gc_cpu_frac": "ratio", "runtime.gc_cycles": "count",
	"runtime.gc_pause_ms_total": "ms", "runtime.heap_live_mb_end": "MB",
	"batch.jobs_done": "count", "hpc.jobs_done": "count", "hpc.mean_wait_s": "s",
}

// tracedRun makes one untraced facade episode of w, for its report and
// its wall time, then one traced run of the same world and seed, and
// reports the per-layer metrics.
func tracedRun(w *world, l *ledger) (map[string]metric, error) {
	base, err := runEpisode(w, l)
	if err != nil {
		return nil, err
	}
	base.free()
	want, untraced := base.report, base.wall
	base = nil
	out := make(map[string]metric, len(perLayerNames))
	var report string
	if w.mirrored {
		report, err = tracedMirror(w, l, out)
	} else {
		report, err = tracedFacade(w, l, out)
	}
	if err != nil {
		return nil, err
	}
	l.check(report == want, "%s: traced run's report differs from the untraced run's:\n%s\nwant:\n%s", w.name, report, want)
	hours := w.horizon.Hours()
	out["untraced_ms_per_sim_hour"] = metric{ms(untraced) / hours, "ms"}
	out["tracing_overhead"] = metric{out["traced_ms_per_sim_hour"].Value * hours / ms(untraced), "ratio"}
	for name, unit := range perLayerNames {
		if _, ok := out[name]; !ok {
			out[name] = metric{0, unit}
		}
	}
	return out, nil
}

// tracedMirror runs w's mirror world sliced at the tick cadence and
// reads the cluster, scheduler and control-loop hooks.
func tracedMirror(w *world, l *ledger, out map[string]metric) (string, error) {
	runtime.GC()
	m, err := buildMirror(w)
	if err != nil {
		return "", err
	}
	if !l.op(m.run(tickEvery)) {
		return "", fmt.Errorf("%s: mirror first tick failed", w.name)
	}
	out["sched.setup_place_s"] = metric{float64(m.phases.PhaseTotalNs(perf.PhaseSchedDrain)) / 1e9, "s"}

	drain0 := m.phases.PhaseTotalNs(perf.PhaseSchedDrain)
	var phase0 [perf.NumPhases]int64
	for p := range phase0 {
		phase0[p] = m.phases.PhaseTotalNs(p)
	}
	ctrl0 := *m.ctrl
	plant0, decide0 := *m.plant, m.decide
	rw := openRuntime()
	split := newSplit()
	for at := time.Duration(0); at < w.horizon; at += w.tracedSlice {
		if !l.op(split.slice(func() error { return m.run(w.tracedSlice) })) {
			return "", fmt.Errorf("%s: mirror run failed at %v", w.name, m.eng.Now())
		}
	}
	rw.close(out)

	ticks := float64(w.horizon / tickEvery)
	for p, name := range map[int]string{
		perf.PhaseP1: "cluster.p1_ms", perf.PhaseP2: "cluster.p2_ms",
		perf.PhaseFlushApps: "cluster.flush_apps_ms", perf.PhaseP3: "cluster.p3_ms",
		perf.PhaseFlushNodes: "cluster.flush_nodes_ms",
		perf.PhaseBarrier:    "sim.barrier_ms", perf.PhaseMailbox: "sim.mailbox_ms",
	} {
		out[name] = metric{float64(m.phases.PhaseTotalNs(p)-phase0[p]) / 1e6 / ticks, "ms"}
	}
	split.drainNs = m.phases.PhaseTotalNs(perf.PhaseSchedDrain) - drain0
	split.ctrlNs = m.ctrl.EvalNs + m.ctrl.ApplyNs - ctrl0.EvalNs - ctrl0.ApplyNs
	split.tickNs = split.sliceNs - split.ctrlNs - split.drainNs
	split.metrics(w.horizon.Hours(), out)

	periods := float64(m.ctrl.Periods - ctrl0.Periods)
	if periods > 0 {
		out["control.eval_ms_per_period"] = metric{float64(m.ctrl.EvalNs-ctrl0.EvalNs) / 1e6 / periods, "ms"}
		out["control.apply_ms_per_period"] = metric{float64(m.ctrl.ApplyNs-ctrl0.ApplyNs) / 1e6 / periods, "ms"}
	}
	out["control.observe_us"] = metric{delta(m.plant.observe, plant0.observe).meanUS(), "us"}
	out["control.actuate_us"] = metric{delta(m.plant.actuate, plant0.actuate).meanUS(), "us"}
	out["core.decide_us"] = metric{delta(m.decide, decide0).meanUS(), "us"}
	// Counts cover the whole run, set-up included: the initial placement
	// is most of fleet-static's scheduling work.
	met := m.c.Metrics()
	ls := m.loop.Stats()
	out["control.periods"] = metric{float64(m.ctrl.Periods), "count"}
	out["control.decisions"] = metric{float64(ls.Decisions), "count"}
	out["control.retries"] = metric{float64(ls.Retries), "count"}
	out["control.abandoned"] = metric{float64(ls.Abandoned), "count"}
	out["control.degraded_periods"] = metric{float64(ls.DegradedPeriods), "count"}
	for name, counter := range map[string]string{
		"sched.binds": "sched/binds", "sched.unschedulable": "sched/unschedulable",
		"sched.preemptions": "sched/preemptions", "sched.gangs": "sched/gangs",
	} {
		out[name] = metric{float64(met.Counter(counter).Value()), "count"}
	}

	var scrape counter
	t0 := time.Now()
	err = obs.WriteMetrics(&scrape, met, obs.Nop())
	out["metrics.scrape_ms"] = metric{ms(time.Since(t0)), "ms"}
	if !l.op(err) {
		return "", fmt.Errorf("%s: scrape failed", w.name)
	}
	out["metrics.scrape_bytes"] = metric{float64(scrape.n), "bytes"}
	t0 = time.Now()
	report := m.report().String()
	out["report_ms"] = metric{ms(time.Since(t0)), "ms"}
	series, samples := 0, 0
	for _, name := range met.SeriesNames() {
		series++
		samples += met.Series(name).Len()
	}
	out["metrics.series"] = metric{float64(series), "count"}
	out["metrics.samples"] = metric{float64(samples), "count"}
	return report, nil
}

func delta(now, then callTimer) *callTimer {
	return &callTimer{calls: now.calls - then.calls, ns: now.ns - then.ns}
}

// tracedFacade runs w through the facade sliced at the checkpoint
// cadence. At each boundary it times the facade's own exported calls:
// an extra Checkpoint into a counting writer, a /metrics scrape through
// Handler, and Report. The trace and span sinks are timed writers.
func tracedFacade(w *world, l *ledger, out map[string]metric) (string, error) {
	runtime.GC()
	events, spans := &sink{timed: true}, &sink{timed: true}
	cl, _, err := setUp(w, sinks{events: events, spans: spans}, &speedTrack{}, l)
	if err != nil {
		return "", err
	}
	handler := cl.Handler()
	sink0 := events.ns + spans.ns
	var (
		encode, scrape, report []float64
		scrapeBytes            int
		lastScrape             string
		early                  []byte
	)
	rw := openRuntime()
	split := newSplit()
	for at := time.Duration(0); at < w.horizon; at += w.tracedSlice {
		if !l.op(split.slice(func() error { return cl.Run(w.tracedSlice) })) {
			return "", fmt.Errorf("%s: run failed at %v", w.name, cl.Now())
		}
		var cw counter
		var ckErr error
		encode = append(encode, ms(split.probe(func() { ckErr = cl.Checkpoint(&cw) })))
		l.op(ckErr)
		rec := httptest.NewRecorder()
		scrape = append(scrape, ms(split.probe(func() {
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		})))
		l.check(rec.Code == http.StatusOK, "%s: /metrics returned %d", w.name, rec.Code)
		scrapeBytes = rec.Body.Len()
		lastScrape = rec.Body.String()
		report = append(report, ms(split.probe(func() { _ = cl.Report() })))
		if early == nil && at+w.tracedSlice >= w.horizon-time.Hour {
			split.probe(func() { early = offHeapCopy(cl.LastCheckpoint()) })
		}
	}
	rw.close(out)
	defer freeOffHeap(early)
	count, total := cl.CheckpointStats()
	// The periodic checkpoints fire inside the Run slices; each encodes
	// the world the next boundary's extra Checkpoint re-encodes, so the
	// extra encodes estimate their cost.
	var encNs float64
	for _, e := range encode {
		encNs += e * 1e6
	}
	if len(encode) > 0 {
		split.ckptNs = int64(encNs * float64(count) / float64(len(encode)))
	}
	split.sinkNs = events.ns + spans.ns - sink0
	split.metrics(w.horizon.Hours(), out)

	out["ckpt.encode_ms_p50"] = metric{percentile(encode, 50), "ms"}
	out["ckpt.encode_ms_p90"] = metric{percentile(encode, 90), "ms"}
	out["ckpt.count"] = metric{float64(count), "count"}
	out["ckpt.bytes_total"] = metric{float64(total), "bytes"}
	out["ckpt.bytes_last"] = metric{float64(len(cl.LastCheckpoint())), "bytes"}
	out["metrics.scrape_ms"] = metric{median(scrape), "ms"}
	out["metrics.scrape_bytes"] = metric{float64(scrapeBytes), "bytes"}
	out["report_ms"] = metric{median(report), "ms"}
	for name, family := range map[string]string{
		"sched.binds": "evolve_sched_binds_total", "sched.unschedulable": "evolve_sched_unschedulable_total",
		"sched.preemptions": "evolve_sched_preemptions_total", "sched.gangs": "evolve_sched_gangs_total",
	} {
		out[name] = metric{scrapeCounter(lastScrape, family), "count"}
	}
	tr := cl.Tracer()
	out["obs.sink_bytes"] = metric{float64(events.bytes + spans.bytes), "bytes"}
	out["obs.events"] = metric{float64(tr.Events()), "count"}
	out["obs.spans"] = metric{float64(tr.Spans()), "count"}
	out["obs.dropped"] = metric{float64(tr.Dropped() + tr.SpansDropped()), "count"}

	rep := cl.Report()
	out["control.retries"] = metric{float64(rep.ActuationRetries), "count"}
	out["control.abandoned"] = metric{float64(rep.Abandoned), "count"}
	out["control.degraded_periods"] = metric{float64(rep.DegradedPeriods), "count"}
	out["batch.jobs_done"] = metric{float64(rep.BatchJobsCompleted), "count"}
	out["hpc.jobs_done"] = metric{float64(rep.HPCJobsCompleted), "count"}
	out["hpc.mean_wait_s"] = metric{rep.HPCMeanWait.Seconds(), "s"}
	series, samples := 0, 0
	for _, name := range cl.SeriesNames() {
		s, err := cl.SeriesSamples(name)
		if !l.op(err) {
			continue
		}
		series++
		samples += len(s)
	}
	out["metrics.series"] = metric{float64(series), "count"}
	out["metrics.samples"] = metric{float64(samples), "count"}
	want := rep.String()

	// Restore and continue, timed: the checkpoint an hour before the
	// horizon, into a freshly built world, run on to the horizon.
	r, err := w.build(quietSinks())
	if err != nil {
		return "", err
	}
	t0 := time.Now()
	if l.check(early != nil, "%s: no checkpoint an hour before the horizon", w.name) &&
		l.op(r.Restore(bytes.NewReader(early))) {
		t1 := time.Now()
		out["ckpt.restore_ms"] = metric{ms(t1.Sub(t0)), "ms"}
		if l.op(r.Run(cl.Now() - r.Now())) {
			out["ckpt.continue_ms"] = metric{ms(time.Since(t1)), "ms"}
			got := r.Report().String()
			l.check(got == want, "%s: restore-and-continue report differs:\n%s\nwant:\n%s", w.name, got, want)
		}
	}
	return want, nil
}

// scrapeCounter reads one unlabelled counter from Prometheus text.
func scrapeCounter(text, family string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), family+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}
