package cluster

import (
	"fmt"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/control"
	"evolve/internal/obs"
	"evolve/internal/resource"
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

// eventKind is a journal line's kind code; kindNames renders it.
type eventKind uint8

const (
	// kindNamed marks a line whose kind is outside the table (see
	// RecordEvent); the record carries the kind's name.
	kindNamed eventKind = iota
	kindPodScheduled
	kindTaskKilled
	kindPodEvicted
	kindPreemption
	kindNodeFailed
	kindNodeRestored
	kindGangRollback
	kindTaskCompleted
	kindRegistryFault
	kindBindFault
	kindChaosInject
	kindPodMigrated
	kindAutoscale
	kindDegradedMode
	kindCtrlCrash
	kindCtrlRestart
	numEventKinds
)

var kindNames = [numEventKinds]string{
	kindPodScheduled:  "pod-scheduled",
	kindTaskKilled:    "task-killed",
	kindPodEvicted:    "pod-evicted",
	kindPreemption:    "preemption",
	kindNodeFailed:    "node-failed",
	kindNodeRestored:  "node-restored",
	kindGangRollback:  "gang-rollback",
	kindTaskCompleted: "task-completed",
	kindRegistryFault: "registry-fault",
	kindBindFault:     "bind-fault",
	kindChaosInject:   "chaos-inject",
	kindPodMigrated:   "pod-migrated",
	kindAutoscale:     "autoscale",
	kindDegradedMode:  "degraded-mode",
	kindCtrlCrash:     "ctrl-crash",
	kindCtrlRestart:   "ctrl-restart",
}

// eventMsg is a journal line's message code; msgSpecs holds its
// template and the types of the arguments it takes.
type eventMsg uint8

const (
	msgText eventMsg = iota
	msgBound
	msgTaskFailed
	msgRequeued
	msgPreempted
	msgNodeFailed
	msgNodeRestored
	msgGangRollback
	msgTaskDone
	msgRegistryFault
	msgBindFault
	msgActRejected
	msgActDelayed
	msgActPartial
	msgMigrated
	msgReason
	msgHealth
	numEventMsgs
)

// msgSpec is a message's fmt template and its argument types, in the
// template's order: each 's' takes the next of eventArgs.s, 'i' takes
// n, 'f' x, 'd' dur, 'v' vec, 'l' list, 'r' reason and 'h' health.
type msgSpec struct {
	format string
	args   string
}

var msgSpecs = [numEventMsgs]msgSpec{
	msgText:          {"%s", "s"},
	msgBound:         {"bound to %s (%s)", "sv"},
	msgTaskFailed:    {"task failed (%s)", "s"},
	msgRequeued:      {"back to pending queue (%s)", "s"},
	msgPreempted:     {"evicted %v on %s", "ls"},
	msgNodeFailed:    {"node marked unready; pods evicted", ""},
	msgNodeRestored:  {"node ready again", ""},
	msgGangRollback:  {"gang commit failed (%v); %d rank(s) rolled back", "si"},
	msgTaskDone:      {"finished on %s", "s"},
	msgRegistryFault: {"registry write failed: %v", "s"},
	msgBindFault:     {"bind to %s failed: %v; pod stays pending", "ss"},
	msgActRejected:   {"actuation rejected (injected fault)", ""},
	msgActDelayed:    {"actuation delayed by %v (injected fault)", "d"},
	msgActPartial:    {"actuation applied at %.0f%% (injected fault)", "f"},
	msgMigrated:      {"replica of %s re-queued for a roomier node", "s"},
	msgReason:        {"%s", "r"},
	msgHealth:        {"%s", "h"},
}

// eventArgs are a journal message's typed arguments; its msgSpec names
// the ones it uses.
type eventArgs struct {
	s      [2]string
	n      int
	x      float64
	dur    time.Duration
	vec    resource.Vector
	list   []string
	reason control.Reason
	health control.Health
}

// record is one journal line as the journal keeps it: codes and typed
// arguments, rendered to an Event only when the journal is read.
type record struct {
	at     time.Duration
	kind   eventKind
	name   string // the kind's name when kind is kindNamed
	object string
	msg    eventMsg
	args   eventArgs
}

// event renders the record with its message's template.
func (r *record) event() Event {
	kind := r.name
	if r.kind != kindNamed {
		kind = kindNames[r.kind]
	}
	spec := &msgSpecs[r.msg]
	vals := make([]any, 0, len(spec.args))
	si := 0
	for _, t := range spec.args {
		switch t {
		case 's':
			vals = append(vals, r.args.s[si])
			si++
		case 'i':
			vals = append(vals, r.args.n)
		case 'f':
			vals = append(vals, r.args.x)
		case 'd':
			vals = append(vals, r.args.dur)
		case 'v':
			vals = append(vals, r.args.vec)
		case 'l':
			vals = append(vals, r.args.list)
		case 'r':
			vals = append(vals, r.args.reason)
		case 'h':
			vals = append(vals, r.args.health)
		}
	}
	return Event{At: r.at, Kind: kind, Object: r.object, Message: fmt.Sprintf(spec.format, vals...)}
}

// saveRecord writes one journal record: the time, the kind code (and
// name for kindNamed), the object, the message code, then the message's
// arguments. It is the one definition of the record the journal ring
// holds and a checkpoint carries.
func saveRecord(w ckpt.Encoder, r *record) {
	w.Dur(r.at)
	w.U8(uint8(r.kind))
	if r.kind == kindNamed {
		w.Str(r.name)
	}
	w.Str(r.object)
	w.U8(uint8(r.msg))
	si := 0
	for _, t := range msgSpecs[r.msg].args {
		switch t {
		case 's':
			w.Str(r.args.s[si])
			si++
		case 'i':
			w.Int(r.args.n)
		case 'f':
			w.F64(r.args.x)
		case 'd':
			w.Dur(r.args.dur)
		case 'v':
			r.args.vec.CkptSave(w)
		case 'l':
			w.Int(len(r.args.list))
			for _, s := range r.args.list {
				w.Str(s)
			}
		case 'r':
			r.args.reason.CkptSave(w)
		case 'h':
			r.args.health.CkptSave(w)
		}
	}
}

// loadRecord reads a record written by saveRecord; an unknown kind or
// message code, or a malformed argument, is an error.
func loadRecord(rd *ckpt.Reader) (record, error) {
	var r record
	r.at = rd.Dur()
	r.kind = eventKind(rd.U8())
	if rd.Err() == nil && r.kind >= numEventKinds {
		return r, fmt.Errorf("kind code %d out of range", r.kind)
	}
	if r.kind == kindNamed {
		r.name = rd.Str()
	}
	r.object = rd.Str()
	r.msg = eventMsg(rd.U8())
	if rd.Err() != nil {
		return r, rd.Err()
	}
	if r.msg >= numEventMsgs {
		return r, fmt.Errorf("message code %d out of range", r.msg)
	}
	si := 0
	var err error
	for _, t := range msgSpecs[r.msg].args {
		switch t {
		case 's':
			r.args.s[si] = rd.Str()
			si++
		case 'i':
			r.args.n = rd.Int()
		case 'f':
			r.args.x = rd.F64()
		case 'd':
			r.args.dur = rd.Dur()
		case 'v':
			r.args.vec = resource.LoadVector(rd)
		case 'l':
			n := rd.Count(8)
			r.args.list = make([]string, n)
			for i := range r.args.list {
				r.args.list[i] = rd.Str()
			}
		case 'r':
			r.args.reason, err = control.LoadReason(rd)
		case 'h':
			r.args.health, err = control.LoadHealth(rd)
		}
		if err != nil {
			return r, err
		}
	}
	return r, rd.Err()
}

// eventLog is the journal: a count-bounded ring of records stored in
// their checkpoint encoding (see saveRecord), so a checkpoint references
// the journal's bytes instead of re-encoding every record.
type eventLog struct {
	ring    obs.Ring      // allocated by the first add
	rec     ckpt.Appender // reused record encoder
	dropped uint64
}

const eventLogCapacity = 2048

func (l *eventLog) add(r *record) {
	l.rec.Buf = l.rec.Buf[:0]
	saveRecord(&l.rec, r)
	l.push(l.rec.Buf)
}

// push appends one encoded record, counting the one it evicts.
func (l *eventLog) push(rec []byte) {
	if l.ring.Cap() == 0 {
		l.ring = obs.NewRing(eventLogCapacity)
	}
	if l.ring.Push(rec) {
		l.dropped++
	}
}

// snapshot renders the journal oldest-first, or nil before the first
// record. Restore validated every record it loaded, so decoding only
// stops early on a ring this package did not write.
func (l *eventLog) snapshot() []Event {
	if l.ring.Cap() == 0 {
		return nil
	}
	out := make([]Event, 0, l.ring.Len())
	l.ring.Each(func(p []byte) {
		for rd := ckpt.NewRawReader(p); len(rd.Rest()) > 0; {
			r, err := loadRecord(rd)
			if err != nil {
				return
			}
			out = append(out, r.event())
		}
	})
	return out
}

// recordEvent appends one typed line to the journal.
func (c *Cluster) recordEvent(kind eventKind, object string, msg eventMsg, args eventArgs) {
	c.events.add(&record{at: c.now(), kind: kind, object: object, msg: msg, args: args})
}

// RecordEvent lets control-plane components outside the cluster
// (experiment hooks, the facade's crash recovery) write a line of
// finished text to the same journal.
func (c *Cluster) RecordEvent(kind, object, message string) {
	r := record{at: c.now(), kind: kindNamed, name: kind, object: object, msg: msgText}
	for k, name := range kindNames {
		if k != int(kindNamed) && name == kind {
			r.kind, r.name = eventKind(k), ""
			break
		}
	}
	r.args.s[0] = message
	c.events.add(&r)
}

// RecordReason implements control.Recorder: an "autoscale" line holding
// the controller's typed reason.
func (c *Cluster) RecordReason(app string, r control.Reason) {
	c.recordEvent(kindAutoscale, app, msgReason, eventArgs{reason: r})
}

// RecordHealth implements control.Recorder: a "degraded-mode" line
// holding the wrapper's typed stance.
func (c *Cluster) RecordHealth(app string, h control.Health) {
	c.recordEvent(kindDegradedMode, app, msgHealth, eventArgs{health: h})
}

// Events returns the journal oldest-first (bounded: the last ~2k events).
func (c *Cluster) Events() []Event { return c.events.snapshot() }

// EventsDropped reports how many old events the ring has discarded.
func (c *Cluster) EventsDropped() uint64 { return c.events.dropped }
