// Package obs is the observability layer of the EVOLVE control plane: a
// ring-buffered tracer that records typed decision events — PID term
// decompositions, gain adaptations, scheduler outcomes, registry deltas
// and PLO violation transitions — plus a Prometheus text exposition of
// the metrics registry and the decision-chain reconstruction behind the
// evolve-explain command.
//
// The tracer is allocation-conscious by design: the hot simulation paths
// run with the shared no-op tracer (Nop) and pay one predicted branch per
// potential event. An enabled tracer encodes each event once, when it is
// recorded, into its ring in the checkpoint encoding: the ring's memory
// is the live encoded bytes, a checkpoint copies them, and readers
// (Snapshot) decode. The ring grows chunk by chunk until it wraps and
// then recycles its chunks, so steady-state recording performs no heap
// allocations (the obs tests and the cluster's traced alloc gate enforce
// this). Record and Snapshot are safe for concurrent use — the HTTP
// debug endpoints read the ring while a paused simulation owns it.
package obs

import (
	"io"
	"sync"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/resource"
)

// Kind classifies a trace event.
type Kind uint8

// The event taxonomy. Every event carries the fields relevant to its
// kind and leaves the rest zero (omitted in JSON).
const (
	// KindControl is one controller decision: observation in, decision
	// out, with the PID decomposition attached when the policy exposes it.
	KindControl Kind = iota
	// KindGain is an adaptive-gain change detected after a decision.
	KindGain
	// KindSched is a scheduler outcome: bind, reject, preempt, evict,
	// migrate, cap, node-failed, node-restored.
	KindSched
	// KindRegistry is an object-store topology delta (added/deleted).
	KindRegistry
	// KindPLO is a violation transition: onset or clear.
	KindPLO
	// KindFault is a robustness event: an injected fault, an absorbed
	// internal fault (registry/bind failure), a degraded-mode transition
	// or an actuation retry.
	KindFault
	numKinds
)

var kindNames = [numKinds]string{"control", "gain", "sched", "registry", "plo", "fault"}

// String returns the canonical kind name.
func (k Kind) String() string {
	if k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// ParseEventKind maps a canonical name back to a Kind.
func ParseEventKind(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Canonical event verbs. Events may carry other verbs; these are the ones
// the built-in recorders emit and Explain understands.
const (
	VerbDecide       = "decide"
	VerbAdapt        = "adapt"
	VerbBind         = "bind"
	VerbReject       = "reject"
	VerbPreempt      = "preempt"
	VerbEvict        = "evict"
	VerbMigrate      = "migrate"
	VerbCap          = "cap"
	VerbNodeFailed   = "node-failed"
	VerbNodeRestored = "node-restored"
	VerbAdded        = "added"
	VerbDeleted      = "deleted"
	VerbOnset        = "onset"
	VerbClear        = "clear"

	// KindFault verbs: an injected chaos fault landing, an internal fault
	// absorbed instead of crashing, a controller entering/leaving
	// degraded mode, and the actuation retry ladder.
	VerbInject    = "inject"
	VerbFault     = "fault"
	VerbDegraded  = "degraded"
	VerbRecovered = "recovered"
	VerbRetry     = "retry"
	VerbAbandon   = "abandon"
)

// PIDTerm is the decomposition of one PID controller update: the shaped
// error it saw, the proportional/integral/derivative contributions, the
// clamped output and whether the output limiter (and therefore the
// anti-windup back-calculation) engaged.
type PIDTerm struct {
	Err     float64
	P       float64
	I       float64
	D       float64
	Out     float64
	Clamped bool
}

// GainSet is one controller's gains at decision time.
type GainSet struct {
	Kp, Ki, Kd float64
}

// ControlTrace is the controller-internal decomposition of one decision,
// attached to KindControl events by policies that expose it.
type ControlTrace struct {
	// Stage names what drove the decision: "scale-out", "scale-in",
	// "floor", "grow", "steady" or "hold".
	Stage string
	// UtilTarget is the adaptive utilisation setpoint in effect.
	UtilTarget float64
	// Adaptations is the cumulative gain-adaptation count.
	Adaptations int
	// FlooredKinds counts dimensions raised by the feedforward floor.
	FlooredKinds int
	// Terms and Gains hold the per-resource PID state.
	Terms [resource.NumKinds]PIDTerm
	Gains [resource.NumKinds]GainSet
}

// Event is one trace record. It is a flat value type that callers pass
// by value; the ring stores its checkpoint encoding. Fields beyond the
// header are kind-dependent and zero elsewhere.
type Event struct {
	// Seq is the global sequence number, assigned by Record (1-based).
	Seq uint64
	// At is the virtual time of the event.
	At time.Duration
	// Kind and Verb classify the event ("sched"/"bind", "plo"/"onset" …).
	Kind Kind
	Verb string

	// App is the application concerned; Object the pod/node/key; Node the
	// placement target; Detail a free-form reason.
	App    string
	Object string
	Node   string
	Detail string

	// Control and PLO telemetry.
	PerfErr   float64
	SLI       float64
	Objective float64
	Offered   float64

	// Replica counts: current desired, currently ready, newly decided.
	Replicas    int
	Ready       int
	NewReplicas int

	// Alloc is the current (or requested) per-replica allocation;
	// NewAlloc the decided/granted one; Util the observed utilisation.
	Alloc    resource.Vector
	NewAlloc resource.Vector
	Util     resource.Vector

	// Ctrl carries the PID decomposition when HasCtrl is set.
	HasCtrl bool
	Ctrl    ControlTrace
}

// DefaultCapacity is the ring size used when none is given: at one
// decision event per app per 15s control period plus scheduler churn,
// 16k events cover several simulated hours of a busy cluster.
const DefaultCapacity = 16384

// Tracer records events into a fixed-capacity ring, optionally teeing
// each event to a JSONL sink. The zero value (and Nop) is a disabled
// tracer whose Record is a no-op; Enabled never changes after
// construction, so call sites may cache it.
//
// Tracer is safe for concurrent use: the simulation records while HTTP
// handlers snapshot between Run calls, and the race detector runs over
// exactly this boundary in CI.
type Tracer struct {
	enabled bool

	mu      sync.Mutex
	events  Ring
	seq     uint64
	dropped uint64
	// rec is the reused buffer each event or span is encoded into
	// before its ring copies it.
	rec ckpt.Appender

	sink    io.Writer
	sinkErr error
	encBuf  []byte

	// The span layer (span.go): its own ring, sequence and sink so span
	// emission never perturbs the event stream's bytes.
	spans       Ring
	spanSeq     uint64
	spanDropped uint64
	spanSink    io.Writer
	spanSinkErr error
	spanEncBuf  []byte

	// Latency histograms with span exemplars (hist.go).
	lat   [NumLatencyKinds]LatencyHistogram
	phase []LatencyHistogram
}

// nop is the shared disabled tracer.
var nop = &Tracer{}

// Nop returns the shared no-op tracer: Enabled is false and Record
// returns immediately. Components default to it so tracing costs one
// branch when off.
func Nop() *Tracer { return nop }

// New returns an enabled tracer whose event and span rings each hold
// capacity records (<= 0 means DefaultCapacity). The rings' storage
// grows with the records they hold, up to the capacity.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Tracer{
		enabled: true,
		events:  NewRing(capacity),
		spans:   NewRing(capacity),
	}
	for k := LatencyKind(0); k < NumLatencyKinds; k++ {
		t.lat[k] = NewLatencyHistogram(k.String(), DefaultLatencyBuckets)
	}
	return t
}

// Enabled reports whether Record stores events. It is immutable after
// construction and safe to read without locking.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// Record stores one event, assigning its sequence number. On a full ring
// the oldest event is dropped. When a sink is installed the event is
// also appended to it as one JSON line; the first sink error latches
// (see SinkErr) and stops further sink writes.
func (t *Tracer) Record(ev Event) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	t.recordLocked(ev)
	t.mu.Unlock()
}

// RecordBatch stores a slice of events under one lock acquisition,
// preserving their order. Equivalent to calling Record per event; the
// sharded tick uses it to emit a barrier's worth of trace events
// without taking the mutex per app.
func (t *Tracer) RecordBatch(evs []Event) {
	if !t.Enabled() || len(evs) == 0 {
		return
	}
	t.mu.Lock()
	for _, ev := range evs {
		t.recordLocked(ev)
	}
	t.mu.Unlock()
}

// recordLocked is Record's body; t.mu must be held.
func (t *Tracer) recordLocked(ev Event) {
	t.seq++
	ev.Seq = t.seq
	t.rec.Buf = t.rec.Buf[:0]
	saveEvent(&t.rec, &ev)
	if t.events.Push(t.rec.Buf) {
		t.dropped++
	}
	if t.sink != nil && t.sinkErr == nil {
		t.encBuf = AppendJSON(t.encBuf[:0], &ev)
		t.encBuf = append(t.encBuf, '\n')
		if _, err := t.sink.Write(t.encBuf); err != nil {
			t.sinkErr = err
		}
	}
}

// SetSink installs a writer that receives every subsequent event as one
// JSON line. Callers own buffering and closing; pass nil to detach.
func (t *Tracer) SetSink(w io.Writer) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	t.sink = w
	t.sinkErr = nil
	t.mu.Unlock()
}

// SinkErr returns the first sink write error, if any.
func (t *Tracer) SinkErr() error {
	if !t.Enabled() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}

// Events returns the total number of events recorded (including any the
// ring has since dropped).
func (t *Tracer) Events() uint64 {
	if !t.Enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Dropped returns how many events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if !t.Enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of events currently held in the ring.
func (t *Tracer) Len() int {
	if !t.Enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.n
}

// RingBytes returns the encoded bytes the event and span rings hold.
func (t *Tracer) RingBytes() (events, spans int) {
	if !t.Enabled() {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.live, t.spans.live
}

// Filter selects events from a snapshot. Zero fields match everything;
// Kind is a kind name ("control", "sched", …). To == 0 means no upper
// bound. Limit > 0 keeps only the most recent matches.
type Filter struct {
	App  string
	Kind string
	Verb string
	From time.Duration
	To   time.Duration
	Lim  int
}

// Match reports whether the event passes the filter (Lim excluded).
func (f Filter) Match(ev *Event) bool {
	if f.App != "" && ev.App != f.App {
		return false
	}
	if f.Kind != "" && ev.Kind.String() != f.Kind {
		return false
	}
	if f.Verb != "" && ev.Verb != f.Verb {
		return false
	}
	if ev.At < f.From {
		return false
	}
	if f.To > 0 && ev.At > f.To {
		return false
	}
	return true
}

// Snapshot decodes the matching events oldest-first.
func (t *Tracer) Snapshot(f Filter) []Event {
	if !t.Enabled() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return decodeRing(&t.events, loadEvent, f.Match, f.Lim)
}
