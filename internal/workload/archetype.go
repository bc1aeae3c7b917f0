package workload

import (
	"fmt"
	"strings"
	"time"

	"evolve/internal/cluster"
	"evolve/internal/perf"
	"evolve/internal/plo"
	"evolve/internal/resource"
)

// Archetype identifies a canonical service class; each stresses a
// different bottleneck resource, which is exactly the regime the
// multi-resource controller is designed for (Table 2).
type Archetype int

// The service archetypes used across the evaluation.
const (
	// Web is a CPU-bound request/response service.
	Web Archetype = iota
	// Gateway is a network-bound proxy/API-gateway.
	Gateway
	// KVStore is a disk-I/O-bound storage service with a tail-latency PLO.
	KVStore
	// Inference is a memory-heavy model-serving service.
	Inference
)

// String returns the archetype name.
func (a Archetype) String() string {
	switch a {
	case Web:
		return "web"
	case Gateway:
		return "gateway"
	case KVStore:
		return "kvstore"
	case Inference:
		return "inference"
	default:
		return "unknown"
	}
}

// Archetypes lists all service archetypes.
func Archetypes() []Archetype { return []Archetype{Web, Gateway, KVStore, Inference} }

// ParseArchetype is the inverse of Archetype.String, in any case. The
// empty name means Web.
func ParseArchetype(name string) (Archetype, error) {
	if name == "" {
		return Web, nil
	}
	for _, a := range Archetypes() {
		if strings.EqualFold(name, a.String()) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown archetype %q (want web, gateway, kvstore or inference)", name)
}

// Service builds a ServiceSpec for the archetype, sized so that
// initialReplicas at the initial allocation comfortably serve baseRate
// ops/second. The caller may override any field afterwards.
func Service(a Archetype, name string, baseRate float64, initialReplicas int) cluster.ServiceSpec {
	if initialReplicas < 1 {
		initialReplicas = 1
	}
	var (
		model    perf.ServiceModel
		objctv   plo.PLO
		priority = 100
	)
	switch a {
	case Gateway:
		model = perf.ServiceModel{
			BaseLatency:      time.Millisecond,
			DemandPerOp:      resource.New(2, 0, 1e3, 400e3), // 2 mc·s, 400kB net/op
			MemFixed:         128 << 20,
			MemPerConcurrent: 1 << 20,
			MaxLatency:       10 * time.Second,
		}
		objctv = plo.Latency(50 * time.Millisecond)
	case KVStore:
		model = perf.ServiceModel{
			BaseLatency:      500 * time.Microsecond,
			DemandPerOp:      resource.New(3, 0, 500e3, 30e3), // 500kB disk/op
			MemFixed:         1 << 30,
			MemPerConcurrent: 2 << 20,
			MaxLatency:       10 * time.Second,
		}
		objctv = plo.TailLatency(100 * time.Millisecond)
	case Inference:
		model = perf.ServiceModel{
			BaseLatency:      5 * time.Millisecond,
			DemandPerOp:      resource.New(60, 0, 10e3, 100e3), // heavy compute
			MemFixed:         4 << 30,                          // resident model
			MemPerConcurrent: 64 << 20,                         // activation memory
			MaxLatency:       30 * time.Second,
		}
		objctv = plo.Latency(500 * time.Millisecond)
	default: // Web
		model = perf.ServiceModel{
			BaseLatency:      2 * time.Millisecond,
			DemandPerOp:      resource.New(10, 0, 20e3, 50e3),
			MemFixed:         256 << 20,
			MemPerConcurrent: 4 << 20,
			MaxLatency:       30 * time.Second,
		}
		objctv = plo.Latency(100 * time.Millisecond)
	}

	// Initial allocation: analytic right-size for the base rate at 70%
	// utilisation — a reasonable operator guess the controller refines.
	alloc := model.DemandFor(baseRate, initialReplicas, 0.7)
	alloc = alloc.Max(minAllocFor(a))
	return cluster.ServiceSpec{
		Name:            name,
		Model:           model,
		PLO:             objctv,
		InitialReplicas: initialReplicas,
		InitialAlloc:    alloc,
		MinAlloc:        minAllocFor(a),
		// Per-replica ceiling of roughly half a standard node: large
		// enough that vertical scaling does real work, small enough that
		// a max-size replica always remains schedulable.
		MaxAlloc:    resource.New(8000, 32<<30, 500e6, 1e9),
		MaxReplicas: 64,
		Priority:    priority,
	}
}

func minAllocFor(a Archetype) resource.Vector {
	switch a {
	case Inference:
		return resource.New(200, 4<<30, 1e6, 1e6)
	case KVStore:
		return resource.New(100, 1<<30, 5e6, 1e6)
	default:
		return resource.New(50, 128<<20, 1e6, 1e6)
	}
}
