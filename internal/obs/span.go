package obs

import (
	"io"
	"time"
)

// The span layer. Events (obs.go) answer "what happened"; spans answer
// "how long did it take and what caused it". A Span is a completed
// interval of virtual time with a parent link, recorded only once its
// end is known — the simulation is deterministic, so a bind already
// knows when the pod will be ready, and a span never exists in a
// half-open state. Spans live in their own ring with their own JSONL
// sink so the event stream's byte layout (which the determinism suite
// fingerprints) is untouched by span emission.
//
// Shard attribution: Span.Shard names the kernel shard that owns the
// span's subject — 0 in a one-shard world — or -1 when no single shard
// owns it (control-plane spans, gang admission, kernel phase totals). It is the ONE
// field allowed to vary between runs at different shard counts; every
// other field — IDs, parents, times, names — must be byte-identical,
// and the determinism suite compares span streams with Shard masked.

// SpanKind classifies a span.
type SpanKind uint8

const (
	// SpanLifecycle is a pod's root span: created → ready. Its parent is
	// the decision or gang-admission span that caused the pod, when one
	// exists. Children cover the pending/startup/running segments.
	SpanLifecycle SpanKind = iota
	// SpanPending covers one pending segment: creation (or eviction)
	// until the bind that ended it.
	SpanPending
	// SpanStartup covers a service replica's bind → ready warm-up.
	SpanStartup
	// SpanSegment covers one running segment: bind until eviction or
	// completion; Detail carries the reason ("preempted", "node-failure",
	// "killed", "migrated", "completed").
	SpanSegment
	// SpanDecision marks one applied control decision (instant in virtual
	// time); lifecycle spans of the pods it created parent to it.
	SpanDecision
	// SpanGang marks one all-or-nothing gang admission; the rank pods'
	// lifecycle spans parent to it.
	SpanGang
	// SpanPhase is one kernel tick phase (p1, p2, flush_apps, …): an
	// instant in virtual time whose WallNs carries the measured wall
	// clock. Emitted only when phase timing is enabled.
	SpanPhase
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"lifecycle", "pending", "startup", "segment", "decision", "gang", "phase",
}

// String returns the canonical span-kind name.
func (k SpanKind) String() string {
	if k >= numSpanKinds {
		return "unknown"
	}
	return spanKindNames[k]
}

// ParseSpanKind maps a canonical name back to a SpanKind.
func ParseSpanKind(s string) (SpanKind, bool) {
	for i, n := range spanKindNames {
		if n == s {
			return SpanKind(i), true
		}
	}
	return 0, false
}

// EventKindNames returns the canonical event-kind names in kind order.
func EventKindNames() []string {
	out := make([]string, numKinds)
	copy(out, kindNames[:])
	return out
}

// SpanKindNames returns the canonical span-kind names in kind order.
func SpanKindNames() []string {
	out := make([]string, numSpanKinds)
	copy(out, spanKindNames[:])
	return out
}

// Span is one completed causal interval. It is a flat value type:
// recording copies it into the ring without touching the heap.
type Span struct {
	// ID is assigned by RecordSpan (1-based, dense). Parent links to the
	// causally enclosing span, 0 for roots.
	ID     uint64
	Parent uint64
	Kind   SpanKind
	// App/Object/Node locate the subject (app name, pod/job/phase name,
	// placement node); Detail is a free-form qualifier (evict reason …).
	App    string
	Object string
	Node   string
	Detail string
	// Shard is the owning kernel shard, -1 when not shard-local. See
	// the package comment: the only field that may vary with shard count.
	Shard int32
	// Start and End bound the interval in virtual time (Start == End for
	// instant spans).
	Start time.Duration
	End   time.Duration
	// WallNs is measured wall-clock nanoseconds for phase spans, 0
	// elsewhere (virtual-time spans have no wall identity).
	WallNs int64
}

// Duration returns the span's virtual-time extent.
func (s *Span) Duration() time.Duration { return s.End - s.Start }

// RecordSpan stores one span, assigning and returning its ID (0 when
// the tracer is disabled). On a full ring the oldest span is dropped.
// When a span sink is installed the span is also appended as one JSON
// line; the first sink error latches (SpanSinkErr) and stops the tee.
func (t *Tracer) RecordSpan(sp Span) uint64 {
	if !t.Enabled() {
		return 0
	}
	t.mu.Lock()
	t.spanSeq++
	sp.ID = t.spanSeq
	if t.spanWrapped {
		t.spanDropped++
	}
	t.spans[t.spanNext] = sp
	t.spanNext++
	if t.spanNext == len(t.spans) {
		t.spanNext = 0
		t.spanWrapped = true
	}
	if t.spanSink != nil && t.spanSinkErr == nil {
		t.spanEncBuf = AppendSpanJSON(t.spanEncBuf[:0], &sp)
		t.spanEncBuf = append(t.spanEncBuf, '\n')
		if _, err := t.spanSink.Write(t.spanEncBuf); err != nil {
			t.spanSinkErr = err
		}
	}
	id := t.spanSeq
	t.mu.Unlock()
	return id
}

// SetSpanSink installs a writer that receives every subsequent span as
// one JSON line. Callers own buffering and closing; pass nil to detach.
func (t *Tracer) SetSpanSink(w io.Writer) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	t.spanSink = w
	t.spanSinkErr = nil
	t.mu.Unlock()
}

// SpanSinkErr returns the first span-sink write error, if any.
func (t *Tracer) SpanSinkErr() error {
	if !t.Enabled() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spanSinkErr
}

// Spans returns the total number of spans recorded (including any the
// ring has since dropped).
func (t *Tracer) Spans() uint64 {
	if !t.Enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spanSeq
}

// SpansDropped returns how many spans the ring has overwritten.
func (t *Tracer) SpansDropped() uint64 {
	if !t.Enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spanDropped
}

// SpanLen returns the number of spans currently held in the ring.
func (t *Tracer) SpanLen() int {
	if !t.Enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spanWrapped {
		return len(t.spans)
	}
	return t.spanNext
}

// SpanFilter selects spans from a snapshot. Zero fields match
// everything; Kind is a span-kind name ("lifecycle", "phase", …). A
// span matches the window if its interval overlaps [From, To] (To == 0
// means no upper bound). Lim > 0 keeps only the most recent matches.
type SpanFilter struct {
	App    string
	Object string
	Kind   string
	From   time.Duration
	To     time.Duration
	Lim    int
}

// Match reports whether the span passes the filter (Lim excluded).
func (f SpanFilter) Match(sp *Span) bool {
	if f.App != "" && sp.App != f.App {
		return false
	}
	if f.Object != "" && sp.Object != f.Object {
		return false
	}
	if f.Kind != "" && sp.Kind.String() != f.Kind {
		return false
	}
	if sp.End < f.From {
		return false
	}
	if f.To > 0 && sp.Start > f.To {
		return false
	}
	return true
}

// SpanSnapshot returns the matching spans oldest-first.
func (t *Tracer) SpanSnapshot(f SpanFilter) []Span {
	if !t.Enabled() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	appendMatch := func(sps []Span) {
		for i := range sps {
			if f.Match(&sps[i]) {
				out = append(out, sps[i])
			}
		}
	}
	if t.spanWrapped {
		appendMatch(t.spans[t.spanNext:])
	}
	appendMatch(t.spans[:t.spanNext])
	if f.Lim > 0 && len(out) > f.Lim {
		out = out[len(out)-f.Lim:]
	}
	return out
}
