package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"evolve"
	"evolve/internal/chaos"
)

// tickEvery is the cluster's telemetry tick (cluster.DefaultConfig's
// MetricsInterval, which the facade keeps). Set-up ends with the first
// tick, which places every initial replica.
const tickEvery = 5 * time.Second

// service is one service declaration plus its offered load.
type service struct {
	opts evolve.ServiceOptions
	load evolve.LoadFunc
}

// world is one workload: everything evolve.New and the declaration
// calls receive, derived from the workload name and the seed alone.
type world struct {
	name     string
	opts     evolve.Options
	services []service
	batch    []evolve.BatchJobOptions
	hpc      []evolve.HPCJobOptions
	// horizon is the simulated time run after set-up; slices is how many
	// equal Run calls cover it in an untraced run.
	horizon time.Duration
	slices  int
	// ckptEvery arms in-memory periodic checkpoints when non-zero.
	ckptEvery time.Duration
	// traced installs the decision tracer with event and span sinks.
	traced bool
	// tracedSlice is the Run slice of the traced run: the checkpoint
	// cadence for facade-probed worlds, the tick cadence for mirrored
	// ones.
	tracedSlice time.Duration
	// mirrored worlds get their traced run from the mirror world
	// (mirror.go); the others are probed through the facade.
	mirrored bool
}

var workloadNames = []string{"converged-day", "fleet-static", "many-apps"}

// phased shifts a load function in time, so services sharing one
// diurnal shape peak at different hours.
func phased(fn evolve.LoadFunc, phase time.Duration) evolve.LoadFunc {
	return func(at time.Duration) float64 { return fn(at + phase) }
}

// diurnalAround is a noisy day/night load between lo× and hi× of base,
// shifted by phase.
func diurnalAround(base, lo, hi float64, period, phase time.Duration, seed int64) evolve.LoadFunc {
	return evolve.Noisy(phased(evolve.Diurnal(lo*base, hi*base, period), phase), 0.08, seed)
}

// newWorld returns the named workload for a seed. The seed drives the
// simulation seed, the load noise and the HPC gang sizes; the world's
// shape (nodes, services, arrival cadence, horizon) is fixed, so host
// cost stays comparable across seeds.
func newWorld(name string, seed int64) (*world, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "converged-day":
		mixed, ok := chaos.Profile("mixed")
		if !ok {
			return nil, fmt.Errorf("chaos profile %q is gone", "mixed")
		}
		w := &world{
			name: name,
			opts: evolve.Options{
				Seed: seed, Nodes: 6, HPCQueue: "backfill",
				Chaos: mixed + ";ctrl-crash@4h-4h15m",
			},
			horizon:     12 * time.Hour,
			slices:      60,
			ckptEvery:   10 * time.Minute,
			traced:      true,
			tracedSlice: 10 * time.Minute,
		}
		for i, s := range []struct {
			name, arch string
			rate       float64
		}{
			{"web", "web", 400},
			{"kvstore", "kvstore", 250},
			{"gateway", "gateway", 300},
			{"inference", "inference", 60},
		} {
			w.services = append(w.services, service{
				opts: evolve.ServiceOptions{Name: s.name, Archetype: s.arch, BaseRate: s.rate},
				load: diurnalAround(s.rate, 0.5, 1.5, 24*time.Hour, time.Duration(i)*6*time.Hour, seed+int64(i)),
			})
		}
		end := tickEvery + w.horizon
		for i, at := 0, 20*time.Minute; at < end; i, at = i+1, at+20*time.Minute {
			w.batch = append(w.batch, evolve.BatchJobOptions{Name: fmt.Sprintf("terasort-%03d", i), SubmitAt: at})
		}
		for i, at := 0, 12*time.Minute; at < end; i, at = i+1, at+12*time.Minute {
			w.hpc = append(w.hpc, evolve.HPCJobOptions{Name: fmt.Sprintf("gang-%03d", i), Ranks: 2 + rng.Intn(5), SubmitAt: at})
		}
		return w, nil
	case "fleet-static":
		w := &world{
			name:        name,
			opts:        evolve.Options{Seed: seed, Nodes: 2000, Policy: "static"},
			horizon:     2 * time.Hour,
			slices:      40,
			tracedSlice: tickEvery,
			mirrored:    true,
		}
		for i := 0; i < 16; i++ {
			w.services = append(w.services, fleetService(i, 500, 100, seed))
		}
		return w, nil
	case "many-apps":
		w := &world{
			name:        name,
			opts:        evolve.Options{Seed: seed, Nodes: 256},
			horizon:     time.Hour,
			slices:      40,
			tracedSlice: tickEvery,
			mirrored:    true,
		}
		for i := 0; i < 512; i++ {
			s := fleetService(i, 2, 100, seed)
			// Staggered phases spread the diurnal peaks over the period,
			// so some services scale out in every control period.
			s.load = diurnalAround(s.opts.BaseRate, 0.5, 1.1, 2*time.Hour, time.Duration(i)*2*time.Hour/512, seed+int64(i))
			w.services = append(w.services, s)
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// archetypes cycles services through the four performance profiles.
var archetypes = []string{"web", "kvstore", "gateway", "inference"}

// fleetService is service i of a fleet: replicas sized for perReplica
// ops/second each, on a noisy diurnal load.
func fleetService(i, replicas int, perReplica float64, seed int64) service {
	rate := perReplica * float64(replicas)
	return service{
		opts: evolve.ServiceOptions{
			Name: fmt.Sprintf("svc-%03d", i), Archetype: archetypes[i%len(archetypes)],
			BaseRate: rate, Replicas: replicas,
		},
		load: diurnalAround(rate, 0.5, 1.5, 24*time.Hour, time.Duration(i)*90*time.Minute, seed+int64(i)),
	}
}

// sinks are the writers a traced world's decision tracer streams to.
type sinks struct {
	events, spans io.Writer
}

// build constructs the world through the public facade, as an
// evolve-sim user would, without running it.
func (w *world) build(s sinks) (*evolve.Cluster, error) {
	cl, err := evolve.New(w.opts)
	if err != nil {
		return nil, err
	}
	for _, svc := range w.services {
		if err := cl.AddService(svc.opts); err != nil {
			return nil, err
		}
		if err := cl.SetLoad(svc.opts.Name, svc.load); err != nil {
			return nil, err
		}
	}
	for _, j := range w.batch {
		if err := cl.SubmitBatchJob(j); err != nil {
			return nil, err
		}
	}
	for _, j := range w.hpc {
		if err := cl.SubmitHPCJob(j); err != nil {
			return nil, err
		}
	}
	if w.traced {
		tr := cl.EnableTracing(0)
		tr.SetSink(s.events)
		tr.SetSpanSink(s.spans)
	}
	if w.ckptEvery > 0 {
		if err := cl.EnableCheckpoints("", w.ckptEvery); err != nil {
			return nil, err
		}
	}
	return cl, nil
}
