package cluster

import (
	"fmt"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/obs"
)

// Event is one line of the cluster's operational journal — the
// "kubectl get events" analogue. Events record the control plane's
// actions (placements, evictions, migrations, failures), not telemetry.
type Event struct {
	At      time.Duration
	Kind    string // e.g. "pod-scheduled", "pod-evicted", "node-failed"
	Object  string // the pod or node concerned
	Message string
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("%8.1fs %-16s %-24s %s", e.At.Seconds(), e.Kind, e.Object, e.Message)
}

// eventLog is the journal: a count-bounded ring of events stored in
// their checkpoint encoding (see saveEvent), so a checkpoint references
// the journal's bytes instead of re-encoding every event.
type eventLog struct {
	ring    obs.Ring      // allocated by the first add
	rec     ckpt.Appender // reused record encoder
	dropped uint64
}

const eventLogCapacity = 2048

func (l *eventLog) add(e Event) {
	l.rec.Buf = l.rec.Buf[:0]
	saveEvent(&l.rec, &e)
	l.push(l.rec.Buf)
}

// push appends one encoded event, counting the one it evicts.
func (l *eventLog) push(rec []byte) {
	if l.ring.Cap() == 0 {
		l.ring = obs.NewRing(eventLogCapacity)
	}
	if l.ring.Push(rec) {
		l.dropped++
	}
}

// snapshot returns events oldest-first, or nil before the first one.
func (l *eventLog) snapshot() []Event {
	if l.ring.Cap() == 0 {
		return nil
	}
	out := make([]Event, 0, l.ring.Len())
	l.ring.Each(func(p []byte) {
		for r := ckpt.NewRawReader(p); len(r.Rest()) > 0; {
			out = append(out, loadEvent(r))
		}
	})
	return out
}

// saveEvent writes one journal event; it is the one definition of the
// record the ring holds and a checkpoint carries.
func saveEvent(w ckpt.Encoder, e *Event) {
	w.Dur(e.At)
	w.Str(e.Kind)
	w.Str(e.Object)
	w.Str(e.Message)
}

// loadEvent reads an event written by saveEvent.
func loadEvent(r *ckpt.Reader) Event {
	return Event{At: r.Dur(), Kind: r.Str(), Object: r.Str(), Message: r.Str()}
}

// recordEvent appends to the journal.
func (c *Cluster) recordEvent(kind, object, format string, args ...interface{}) {
	c.events.add(Event{
		At:      c.now(),
		Kind:    kind,
		Object:  object,
		Message: fmt.Sprintf(format, args...),
	})
}

// RecordEvent lets control-plane components outside the cluster (the
// autoscaler driver, experiment hooks) write to the same journal.
func (c *Cluster) RecordEvent(kind, object, message string) {
	c.recordEvent(kind, object, "%s", message)
}

// Events returns the journal oldest-first (bounded: the last ~2k events).
func (c *Cluster) Events() []Event { return c.events.snapshot() }

// EventsDropped reports how many old events the ring has discarded.
func (c *Cluster) EventsDropped() uint64 { return c.events.dropped }
