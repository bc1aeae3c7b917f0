// Command evolve-sim runs one converged-cluster scenario from flags and
// prints the outcome report, optionally dumping telemetry series as CSV.
//
// Examples:
//
//	evolve-sim -policy evolve -nodes 5 -duration 2h
//	evolve-sim -policy hpa -services web:300,kvstore:200 -hpc 4 -batch 3
//	evolve-sim -chaos node-kill -events           # inject a node crash, watch the recovery
//	evolve-sim -chaos "metric-drop@30m:p=1" -duration 1h
//	evolve-sim -config scenario.json -events
//	evolve-sim -dump app/web/latency-mean -duration 1h > lat.csv
//	evolve-sim -trace run.jsonl -duration 2h   # then: evolve-explain -trace run.jsonl -app web
//	evolve-sim -spans spans.jsonl -duration 2h # then: evolve-timeline -spans spans.jsonl -pod web-7
//	evolve-sim -metrics-addr :9090             # Prometheus text on /metrics after the run
//	evolve-sim -ckpt-dir ck -ckpt-every 5m     # periodic world checkpoints in ck/
//	evolve-sim -ckpt-dir ck -ckpt-every 5m -resume  # continue from the latest one
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"evolve"
	"evolve/internal/chaos"
	"evolve/internal/obs"
	"evolve/internal/world"
)

// outputs collects everything finish should emit after the run.
type outputs struct {
	list, events bool
	dump         string
	serve        string
	metricsAddr  string
	trace        string
	spans        string
	traceBuf     int
	ckptDir      string
	ckptEvery    time.Duration
	resume       bool
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "simulation seed")
		nodes    = flag.Int("nodes", 5, "number of nodes")
		policy   = flag.String("policy", "evolve", "resource policy: "+strings.Join(world.PolicyNames(), ", "))
		duration = flag.Duration("duration", 2*time.Hour, "virtual run time")
		services = flag.String("services", "web:400,gateway:300,kvstore:200,inference:30",
			"comma-separated archetype:baseRate service list (names default to the archetype)")
		diurnal   = flag.Bool("diurnal", true, "drive services with a diurnal cycle (0.5x..3x base); constant base rate otherwise")
		batchN    = flag.Int("batch", 0, "number of TeraSort-like DAG jobs to stream in")
		hpcN      = flag.Int("hpc", 0, "number of 4-rank HPC gang jobs to stream in")
		dump      = flag.String("dump", "", "telemetry series to print as CSV after the run (e.g. app/web/latency-mean)")
		list      = flag.Bool("list-series", false, "list telemetry series after the run")
		events    = flag.Bool("events", false, "print the operational event journal after the run")
		serve     = flag.String("serve", "", "after the run, serve /report, /series, /metrics, /debug/trace and friends on this address (e.g. :8080)")
		metrics   = flag.String("metrics-addr", "", "after the run, serve Prometheus /metrics on this address (e.g. :9090)")
		trace     = flag.String("trace", "", "record the decision trace as JSONL to this file (consumed by evolve-explain)")
		spans     = flag.String("spans", "", "record causal spans as JSONL to this file (consumed by evolve-timeline)")
		buf       = flag.Int("trace-buf", obs.DefaultCapacity, "decision-trace ring capacity (events kept for /debug/trace)")
		config    = flag.String("config", "", "JSON scenario file (see evolve.FileConfig); overrides the workload flags")
		chaosPlan = flag.String("chaos", "", "fault-injection plan: a profile ("+strings.Join(chaos.Profiles(), ", ")+") or a chaos-DSL string")
		ckptDir   = flag.String("ckpt-dir", "", "directory for periodic ckpt-*.evck checkpoint files (requires -ckpt-every)")
		ckptEvery = flag.Duration("ckpt-every", 0, "take a world checkpoint at this virtual-time interval (e.g. 30s, 5m); 0 disables")
		resume    = flag.Bool("resume", false, "restore the latest checkpoint in -ckpt-dir before running; the run continues to -duration")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -serve and -metrics-addr handlers")
	)
	flag.Parse()

	out := outputs{
		list: *list, events: *events, dump: *dump,
		serve: *serve, metricsAddr: *metrics,
		trace: *trace, spans: *spans, traceBuf: *buf,
		ckptDir: *ckptDir, ckptEvery: *ckptEvery, resume: *resume,
	}

	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			fatal(err)
		}
		c, dur, err := evolve.NewFromConfig(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if dur == 0 {
			dur = *duration
		}
		if *pprofOn {
			c.EnablePprof()
		}
		finish(c, dur, out)
		return
	}

	c, err := evolve.New(evolve.Options{
		Seed: *seed, Nodes: *nodes, Policy: *policy, Chaos: *chaosPlan,
		DebugPprof: *pprofOn,
	})
	if err != nil {
		fatal(err)
	}

	idx := int64(0)
	for _, item := range strings.Split(*services, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.SplitN(item, ":", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("bad service %q (want archetype:baseRate)", item))
		}
		base, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			fatal(fmt.Errorf("bad base rate in %q: %v", item, err))
		}
		name := parts[0]
		if err := c.AddService(evolve.ServiceOptions{Name: name, Archetype: parts[0], BaseRate: base}); err != nil {
			fatal(err)
		}
		load := evolve.Constant(base)
		if *diurnal {
			load = evolve.Noisy(evolve.Diurnal(base*0.5, base*3, 2*time.Hour), 0.08, *seed+idx)
		}
		if err := c.SetLoad(name, load); err != nil {
			fatal(err)
		}
		idx++
	}
	for i := 0; i < *batchN; i++ {
		if err := c.SubmitBatchJob(evolve.BatchJobOptions{
			Name: fmt.Sprintf("tsort-%d", i), Scale: 1.5,
			SubmitAt: time.Duration(i+1) * 15 * time.Minute,
		}); err != nil {
			fatal(err)
		}
	}
	for i := 0; i < *hpcN; i++ {
		if err := c.SubmitHPCJob(evolve.HPCJobOptions{
			Name: fmt.Sprintf("mpi-%d", i), Ranks: 4,
			SubmitAt: time.Duration(i+1) * 10 * time.Minute,
		}); err != nil {
			fatal(err)
		}
	}

	finish(c, *duration, out)
}

// finish runs the cluster for dur and emits the requested outputs.
func finish(c *evolve.Cluster, dur time.Duration, out outputs) {
	var traceFile, spanFile *os.File
	var traceW, spanW *bufio.Writer
	if out.trace != "" {
		f, err := os.Create(out.trace)
		if err != nil {
			fatal(err)
		}
		traceFile, traceW = f, bufio.NewWriter(f)
		c.EnableTracing(out.traceBuf).SetSink(traceW)
	}
	if out.spans != "" {
		f, err := os.Create(out.spans)
		if err != nil {
			fatal(err)
		}
		spanFile, spanW = f, bufio.NewWriter(f)
		c.EnableTracing(out.traceBuf).SetSpanSink(spanW)
	}
	if out.trace == "" && out.spans == "" && (out.serve != "" || out.metricsAddr != "") {
		// Serving without a sink still wants /debug/trace to answer.
		c.EnableTracing(out.traceBuf)
	}

	if out.ckptEvery > 0 {
		if err := c.EnableCheckpoints(out.ckptDir, out.ckptEvery); err != nil {
			fatal(err)
		}
	} else if out.ckptDir != "" {
		fatal(errors.New("-ckpt-dir needs -ckpt-every to schedule checkpoints"))
	}
	if out.resume {
		// Restore the latest checkpoint, then run only the remaining
		// virtual time so the resumed run ends at the same horizon —
		// and, by determinism, with the same report — as a run that
		// never crashed. A missing or empty directory starts fresh so
		// the same command line works on the first launch too.
		if out.ckptDir == "" {
			fatal(errors.New("-resume needs -ckpt-dir"))
		}
		if path, err := evolve.LatestCheckpoint(out.ckptDir); err == nil {
			if err := c.RestoreFile(path); err != nil {
				fatal(fmt.Errorf("resume: %w", err))
			}
			fmt.Fprintf(os.Stderr, "evolve-sim: resumed from %s at t=%s\n", path, c.Now())
		} else {
			fmt.Fprintf(os.Stderr, "evolve-sim: no checkpoint in %s, starting fresh\n", out.ckptDir)
		}
	}

	if rem := dur - c.Now(); rem > 0 {
		if err := c.Run(rem); err != nil {
			fatal(err)
		}
	}
	fmt.Fprint(os.Stderr, c.Report())

	if traceW != nil {
		if err := c.Tracer().SinkErr(); err != nil {
			fatal(fmt.Errorf("trace sink: %w", err))
		}
		if err := traceW.Flush(); err != nil {
			fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "evolve-sim: decision trace written to %s\n", out.trace)
	}
	if spanW != nil {
		if err := c.Tracer().SpanSinkErr(); err != nil {
			fatal(fmt.Errorf("span sink: %w", err))
		}
		if err := spanW.Flush(); err != nil {
			fatal(err)
		}
		if err := spanFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "evolve-sim: span stream written to %s\n", out.spans)
	}

	if out.list {
		for _, n := range c.SeriesNames() {
			fmt.Println(n)
		}
	}
	if out.events {
		for _, e := range c.Events() {
			fmt.Printf("%8.1fs %-16s %-24s %s\n", e.At.Seconds(), e.Kind, e.Object, e.Message)
		}
	}
	if out.dump != "" {
		if err := c.WriteSeriesCSV(out.dump, os.Stdout); err != nil {
			fatal(err)
		}
	}
	// The simulation is paused now, so serving its state is safe. When
	// both addresses are requested the metrics listener runs aside.
	// Servers block until SIGINT/SIGTERM, then drain in-flight requests.
	var servers []*http.Server
	srvErr := make(chan error, 2)
	start := func(addr string, h http.Handler, what string) {
		s := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 5 * time.Second}
		servers = append(servers, s)
		fmt.Fprintf(os.Stderr, "evolve-sim: serving %s on %s\n", what, addr)
		go func() {
			if err := s.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				srvErr <- err
			}
		}()
	}
	if out.metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", c.Handler())
		start(out.metricsAddr, mux, "/metrics")
	}
	if out.serve != "" {
		start(out.serve, c.Handler(), "results")
	}
	if len(servers) > 0 {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case err := <-srvErr:
			fatal(err)
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "evolve-sim: %v, shutting down\n", s)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for _, srv := range servers {
				if err := srv.Shutdown(ctx); err != nil {
					fmt.Fprintln(os.Stderr, "evolve-sim: shutdown:", err)
				}
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evolve-sim:", err)
	os.Exit(1)
}
