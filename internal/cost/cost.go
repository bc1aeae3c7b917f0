// Package cost prices the cluster: what the allocated resources would
// bill at cloud on-demand rates, and what the nodes draw in energy. It
// turns the utilisation gap between policies into the currencies
// operators actually argue about — dollars and watts — and powers the
// cost/energy comparison experiment (Table 5).
//
// Pricing follows the usual cloud decomposition: a per-resource rate
// (core-hours, GiB-hours, bandwidth) applied to *allocations*, because
// that is what reservations bill for regardless of use. Energy follows
// the standard linear server model: idle floor plus a utilisation-
// proportional dynamic part, applied to *usage*, because that is what
// draws power.
package cost

import (
	"fmt"
	"time"

	"evolve/internal/metrics"
	"evolve/internal/resource"
)

// Pricing is the per-hour rate card for one resource unit.
type Pricing struct {
	// CPUCoreHour is the price of one core (1000 millicores) for an hour.
	CPUCoreHour float64
	// MemGiBHour is the price of one GiB-hour.
	MemGiBHour float64
	// DiskMBpsHour is the price of 1 MB/s of provisioned disk bandwidth
	// for an hour (IOPS-provisioned volumes bill like this).
	DiskMBpsHour float64
	// NetMBpsHour is the price of 1 MB/s of guaranteed network bandwidth
	// for an hour.
	NetMBpsHour float64
}

// DefaultPricing approximates public-cloud on-demand rates (USD).
func DefaultPricing() Pricing {
	return Pricing{
		CPUCoreHour:  0.040,
		MemGiBHour:   0.005,
		DiskMBpsHour: 0.0008,
		NetMBpsHour:  0.0005,
	}
}

// Validate reports rate-card errors.
func (p Pricing) Validate() error {
	if p.CPUCoreHour < 0 || p.MemGiBHour < 0 || p.DiskMBpsHour < 0 || p.NetMBpsHour < 0 {
		return fmt.Errorf("cost: negative rates %+v", p)
	}
	return nil
}

// HourlyRate prices an allocation vector per hour.
func (p Pricing) HourlyRate(alloc resource.Vector) float64 {
	return alloc[resource.CPU]/1000*p.CPUCoreHour +
		alloc[resource.Memory]/float64(1<<30)*p.MemGiBHour +
		alloc[resource.DiskIO]/1e6*p.DiskMBpsHour +
		alloc[resource.NetIO]/1e6*p.NetMBpsHour
}

// Cost integrates a step series of allocation vectors over a window into
// a bill. The series must be sampled at identical timestamps per kind, as
// the cluster's "cluster/allocated/<kind>" fraction series are; capacity
// converts fractions back to absolute vectors.
func (p Pricing) Cost(met *metrics.Registry, capacity resource.Vector, from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	var mean resource.Vector
	for _, k := range resource.Kinds() {
		frac := met.Lookup("cluster/allocated/"+k.String()).TimeWeightedMean(from, to)
		mean[k] = frac * capacity[k]
	}
	hours := (to - from).Hours()
	return p.HourlyRate(mean) * hours
}

// PowerModel is the standard linear server power model.
type PowerModel struct {
	// IdleWatts is drawn by a powered-on node regardless of load.
	IdleWatts float64
	// DynamicWatts is the additional draw at 100% CPU utilisation.
	DynamicWatts float64
	// SleepWatts is drawn by a node that could be suspended because it
	// hosts nothing (binpack consolidation enables this).
	SleepWatts float64
}

// DefaultPowerModel approximates a 2-socket 16-core server.
func DefaultPowerModel() PowerModel {
	return PowerModel{IdleWatts: 110, DynamicWatts: 160, SleepWatts: 8}
}

// NodePower returns the draw of one node at the given CPU utilisation
// (0..1); empty && consolidable nodes report the sleep draw.
func (m PowerModel) NodePower(cpuUtil float64, empty bool) float64 {
	if empty {
		return m.SleepWatts
	}
	if cpuUtil < 0 {
		cpuUtil = 0
	}
	if cpuUtil > 1 {
		cpuUtil = 1
	}
	return m.IdleWatts + m.DynamicWatts*cpuUtil
}

// Energy integrates cluster energy over a window into watt-hours, from
// the per-node usage series the cluster records. nodes is the node count;
// the cluster-level usage fraction spreads across them, and the
// emptiness fraction comes from the consolidation series when present.
//
// This is deliberately a coarse model: it answers "how much does packing
// or reclaiming change the power bill", not "what does this PDU read".
func (m PowerModel) Energy(met *metrics.Registry, nodes int, from, to time.Duration) float64 {
	if to <= from || nodes <= 0 {
		return 0
	}
	util := met.Lookup("cluster/usage/cpu").TimeWeightedMean(from, to)
	emptyFrac := met.Lookup("cluster/empty-nodes").TimeWeightedMean(from, to) / float64(nodes)
	if emptyFrac < 0 {
		emptyFrac = 0
	}
	if emptyFrac > 1 {
		emptyFrac = 1
	}
	// Busy nodes share the whole cluster's used CPU.
	busyNodes := float64(nodes) * (1 - emptyFrac)
	var perNodeUtil float64
	if busyNodes > 0 {
		perNodeUtil = util * float64(nodes) / busyNodes
	}
	if perNodeUtil > 1 {
		perNodeUtil = 1
	}
	hours := (to - from).Hours()
	watts := busyNodes*m.NodePower(perNodeUtil, false) +
		float64(nodes)*emptyFrac*m.NodePower(0, true)
	return watts * hours
}

// Summary bundles the two bills for one run.
type Summary struct {
	Dollars  float64
	WattHour float64
}

// Summarise prices a run window with both models.
func Summarise(met *metrics.Registry, capacity resource.Vector, nodes int, from, to time.Duration, p Pricing, pm PowerModel) Summary {
	return Summary{
		Dollars:  p.Cost(met, capacity, from, to),
		WattHour: pm.Energy(met, nodes, from, to),
	}
}
