package cluster

import (
	"time"

	"evolve/internal/chaos"
	"evolve/internal/obs"
)

// TickResult summarises the faults the cluster absorbed since the most
// recent tick began: internal faults it degraded through instead of
// crashing on, and sensor samples chaos withheld from the controllers.
type TickResult struct {
	// At is the virtual time the tick started.
	At time.Duration
	// RegistryFaults counts replica creations absorbed because a task
	// pod already held the replica's name; BindFailures counts binds
	// that failed after a successful schedule.
	RegistryFaults int
	BindFailures   int
	// SamplesDropped / SamplesStale count sensor samples the chaos
	// injector discarded or froze on the way to the controllers.
	SamplesDropped int
	SamplesStale   int
}

// LastTick returns the fault summary accumulated since the most recent
// tick started (faults absorbed between ticks land on the current
// summary too).
func (c *Cluster) LastTick() TickResult { return c.lastTick }

// SetChaos installs a fault injector on the cluster's sensor and
// actuation paths. Pass nil to remove it. With no injector installed the
// interposer hooks cost one nil check per tick and per actuation — the
// steady-state allocation budget is unaffected.
func (c *Cluster) SetChaos(inj *chaos.Injector) { c.chaos = inj }

// Chaos returns the installed fault injector, if any.
func (c *Cluster) Chaos() *chaos.Injector { return c.chaos }

// AppOnNode reports whether the app currently has a replica bound to the
// node. It implements chaos.HostChecker, scoping node-targeted metric
// faults to the apps actually hosted there.
func (c *Cluster) AppOnNode(app, node string) bool {
	for _, p := range c.byApp[app] {
		if p.Node == node {
			return true
		}
	}
	return false
}

// registryFault absorbs an object creation the cluster refused: it
// counts, journals and traces the fault and carries on rather than
// crashing the control plane.
func (c *Cluster) registryFault(m *Meta, err error) {
	c.lastTick.RegistryFaults++
	c.met.Counter("faults/registry").Inc()
	name := m.Kind + "/" + m.Name
	c.recordEvent(kindRegistryFault, name, msgRegistryFault, eventArgs{s: [2]string{err.Error()}})
	if c.tracer.Enabled() {
		c.tracer.Record(obs.Event{
			At: c.now(), Kind: obs.KindFault, Verb: obs.VerbFault,
			Object: name, Detail: err.Error(),
		})
	}
}

// bindFault absorbs a bind that failed after the scheduler picked a node
// (the node died between the decision and the bind). The pod stays
// pending and is retried next round.
func (c *Cluster) bindFault(p *PodObject, node string, err error) {
	c.lastTick.BindFailures++
	c.met.Counter("faults/bind").Inc()
	c.recordEvent(kindBindFault, p.Name, msgBindFault, eventArgs{s: [2]string{node, err.Error()}})
	if c.tracer.Enabled() {
		c.tracer.Record(obs.Event{
			At: c.now(), Kind: obs.KindFault, Verb: obs.VerbFault,
			App: p.App, Object: p.Name, Node: node, Detail: err.Error(),
		})
	}
}
