package evolve

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// FileConfig is the JSON scenario format consumed by NewFromConfig and
// `evolve-sim -config`. Durations are minutes (scenario authoring works
// in minutes; the load helpers still run on exact virtual time).
//
//	{
//	  "seed": 1, "nodes": 5, "policy": "evolve", "durationMinutes": 120,
//	  "services": [{
//	    "name": "web", "archetype": "web", "baseRate": 400,
//	    "latencyObjectiveMs": 100,
//	    "load": {"kind": "diurnal", "trough": 200, "peak": 1200,
//	             "periodMinutes": 120, "noise": 0.08}
//	  }],
//	  "batch": [{"name": "etl-0", "scale": 2, "submitAtMinutes": 15}],
//	  "hpc":   [{"name": "sim-0", "ranks": 4, "submitAtMinutes": 10}]
//	}
type FileConfig struct {
	Seed            int64   `json:"seed"`
	Nodes           int     `json:"nodes"`
	NodeShape       string  `json:"nodeShape"`
	Policy          string  `json:"policy"`
	Overprovision   float64 `json:"overprovision"`
	HPCQueue        string  `json:"hpcQueue"`
	DurationMinutes float64 `json:"durationMinutes"`
	// Chaos is a fault-injection plan: a named profile or a chaos-DSL
	// string (see Options.Chaos). Empty means fault-free.
	Chaos string `json:"chaos"`
	// Shards runs the kernel sharded (see Options.Shards); results are
	// byte-identical at any shard count.
	Shards int `json:"shards"`

	Pools []PoolConfig `json:"pools"`

	Services []ServiceConfig `json:"services"`
	Batch    []BatchConfig   `json:"batch"`
	HPC      []HPCConfig     `json:"hpc"`
}

// PoolConfig declares a labeled node pool in a FileConfig.
type PoolConfig struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
}

// ServiceConfig declares one service in a FileConfig.
type ServiceConfig struct {
	Name                string     `json:"name"`
	Archetype           string     `json:"archetype"`
	BaseRate            float64    `json:"baseRate"`
	Replicas            int        `json:"replicas"`
	LatencyObjectiveMs  float64    `json:"latencyObjectiveMs"`
	ThroughputObjective float64    `json:"throughputObjective"`
	StartupDelaySec     float64    `json:"startupDelaySec"`
	Pool                string     `json:"pool"`
	Load                LoadConfig `json:"load"`
}

// LoadConfig declares a service's offered-load shape in a FileConfig.
type LoadConfig struct {
	// Kind: "constant" (default), "diurnal", "step", "flash".
	Kind string `json:"kind"`
	// Constant / base rate.
	Rate float64 `json:"rate"`
	// Diurnal parameters.
	Trough        float64 `json:"trough"`
	Peak          float64 `json:"peak"`
	PeriodMinutes float64 `json:"periodMinutes"`
	// Step / flash parameters.
	Before        float64 `json:"before"`
	After         float64 `json:"after"`
	AtMinutes     float64 `json:"atMinutes"`
	LengthMinutes float64 `json:"lengthMinutes"`
	// Noise is a multiplicative jitter fraction applied on top.
	Noise float64 `json:"noise"`
}

// BatchConfig declares one DAG job in a FileConfig.
type BatchConfig struct {
	Name            string  `json:"name"`
	Scale           float64 `json:"scale"`
	SubmitAtMinutes float64 `json:"submitAtMinutes"`
	Pool            string  `json:"pool"`
}

// HPCConfig declares one rigid gang job in a FileConfig.
type HPCConfig struct {
	Name              string  `json:"name"`
	Ranks             int     `json:"ranks"`
	CPUSecondsPerRank float64 `json:"cpuSecondsPerRank"`
	SubmitAtMinutes   float64 `json:"submitAtMinutes"`
	Pool              string  `json:"pool"`
}

func minutes(m float64) time.Duration {
	return time.Duration(m * float64(time.Minute))
}

// buildLoad turns a LoadConfig into a LoadFunc. base is the service's
// BaseRate, used as the default for unset rates.
func buildLoad(lc LoadConfig, base float64, seed int64) (LoadFunc, error) {
	or := func(v, def float64) float64 {
		if v > 0 {
			return v
		}
		return def
	}
	var fn LoadFunc
	switch lc.Kind {
	case "", "constant":
		fn = Constant(or(lc.Rate, base))
	case "diurnal":
		fn = Diurnal(or(lc.Trough, base/2), or(lc.Peak, base*3), minutes(or(lc.PeriodMinutes, 120)))
	case "step":
		fn = Step(or(lc.Before, base), or(lc.After, base*2), minutes(lc.AtMinutes))
	case "flash":
		fn = FlashCrowd(or(lc.Before, base), or(lc.After, base*3),
			minutes(lc.AtMinutes), minutes(or(lc.LengthMinutes, 15)))
	default:
		return nil, fmt.Errorf("evolve: unknown load kind %q", lc.Kind)
	}
	if lc.Noise > 0 {
		fn = Noisy(fn, lc.Noise, seed)
	}
	return fn, nil
}

// NewFromConfig builds a fully-wired cluster from a JSON scenario and
// returns it with the configured run duration (0 when unset; callers
// choose their own horizon then). A set duration is also the cluster's
// Options.History, so series exports cover the whole scenario.
func NewFromConfig(r io.Reader) (*Cluster, time.Duration, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var fc FileConfig
	if err := dec.Decode(&fc); err != nil {
		return nil, 0, fmt.Errorf("evolve: config: %w", err)
	}
	if len(fc.Services) == 0 && len(fc.Batch) == 0 && len(fc.HPC) == 0 {
		return nil, 0, fmt.Errorf("evolve: config declares no workload")
	}
	opts := Options{
		Seed:          fc.Seed,
		Nodes:         fc.Nodes,
		NodeShape:     fc.NodeShape,
		Policy:        fc.Policy,
		Overprovision: fc.Overprovision,
		HPCQueue:      fc.HPCQueue,
		Chaos:         fc.Chaos,
		Shards:        fc.Shards,
		// A scenario with a horizon retains its whole run, so series
		// exports cover it; without one the History default applies.
		History: minutes(fc.DurationMinutes),
	}
	for _, p := range fc.Pools {
		opts.Pools = append(opts.Pools, PoolOptions{Name: p.Name, Nodes: p.Nodes})
	}
	c, err := New(opts)
	if err != nil {
		return nil, 0, err
	}
	for i, svc := range fc.Services {
		if err := c.AddService(ServiceOptions{
			Name:                svc.Name,
			Archetype:           svc.Archetype,
			BaseRate:            svc.BaseRate,
			Replicas:            svc.Replicas,
			LatencyObjective:    time.Duration(svc.LatencyObjectiveMs * float64(time.Millisecond)),
			ThroughputObjective: svc.ThroughputObjective,
			StartupDelay:        time.Duration(svc.StartupDelaySec * float64(time.Second)),
			Pool:                svc.Pool,
		}); err != nil {
			return nil, 0, err
		}
		load, err := buildLoad(svc.Load, svc.BaseRate, fc.Seed+int64(i))
		if err != nil {
			return nil, 0, fmt.Errorf("evolve: service %s: %w", svc.Name, err)
		}
		if err := c.SetLoad(svc.Name, load); err != nil {
			return nil, 0, err
		}
	}
	for _, b := range fc.Batch {
		if err := c.SubmitBatchJob(BatchJobOptions{
			Name: b.Name, Scale: b.Scale, SubmitAt: minutes(b.SubmitAtMinutes), Pool: b.Pool,
		}); err != nil {
			return nil, 0, err
		}
	}
	for _, h := range fc.HPC {
		if err := c.SubmitHPCJob(HPCJobOptions{
			Name: h.Name, Ranks: h.Ranks, CPUSecondsPerRank: h.CPUSecondsPerRank,
			SubmitAt: minutes(h.SubmitAtMinutes), Pool: h.Pool,
		}); err != nil {
			return nil, 0, err
		}
	}
	return c, minutes(fc.DurationMinutes), nil
}
