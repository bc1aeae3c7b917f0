package obs

import (
	"fmt"
	"math"

	"evolve/internal/ckpt"
	"evolve/internal/resource"
)

// SaveControlTrace writes a controller decision decomposition; the
// controllers' StateSaver implementations carry their lastTrace through
// checkpoints with it.
func SaveControlTrace(w ckpt.Encoder, t ControlTrace) {
	w.Str(t.Stage)
	w.F64(t.UtilTarget)
	w.Int(t.Adaptations)
	w.Int(t.FlooredKinds)
	for _, term := range t.Terms {
		w.F64(term.Err)
		w.F64(term.P)
		w.F64(term.I)
		w.F64(term.D)
		w.F64(term.Out)
		w.Bool(term.Clamped)
	}
	for _, g := range t.Gains {
		w.F64(g.Kp)
		w.F64(g.Ki)
		w.F64(g.Kd)
	}
}

// LoadControlTrace reads a ControlTrace written by SaveControlTrace.
func LoadControlTrace(r *ckpt.Reader) ControlTrace {
	var t ControlTrace
	t.Stage = r.Str()
	t.UtilTarget = r.F64()
	t.Adaptations = r.Int()
	t.FlooredKinds = r.Int()
	for k := range t.Terms {
		t.Terms[k] = PIDTerm{Err: r.F64(), P: r.F64(), I: r.F64(), D: r.F64(), Out: r.F64(), Clamped: r.Bool()}
	}
	for k := range t.Gains {
		t.Gains[k] = GainSet{Kp: r.F64(), Ki: r.F64(), Kd: r.F64()}
	}
	return t
}

func saveLatHist(w *ckpt.Writer, h *LatencyHistogram) {
	w.Str(h.Name)
	w.Int(len(h.Counts))
	for _, c := range h.Counts {
		w.U64(c)
	}
	w.U64(h.Count)
	w.F64(h.Sum)
	w.F64(h.Max)
	w.U64(h.Exemplar)
}

// loadLatHist reads a histogram written by saveLatHist into h, which
// must already carry the right bounds (bounds are configuration: the
// tracer's built-in kinds and phase histograms share package defaults).
func loadLatHist(r *ckpt.Reader, h *LatencyHistogram) error {
	name := r.Str()
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if h.Counts == nil {
		// A phase histogram materialised on first use: reconstruct it.
		*h = NewLatencyHistogram(name, DefaultWallBuckets)
	}
	if n != len(h.Counts) {
		return fmt.Errorf("obs: ckpt: histogram %s has %d buckets, checkpoint %d", h.Name, len(h.Counts), n)
	}
	if name != h.Name {
		return fmt.Errorf("obs: ckpt: histogram name %q, checkpoint %q", h.Name, name)
	}
	for i := range h.Counts {
		h.Counts[i] = r.U64()
	}
	h.Count = r.U64()
	h.Sum = r.F64()
	h.Max = r.F64()
	h.Exemplar = r.U64()
	return r.Err()
}

// saveEvent writes one event as a fixed binary record; the PID
// decomposition follows only when HasCtrl is set. It is the one
// definition of the record: Record encodes with it into the ring, and
// CkptSave copies the ring's bytes.
func saveEvent(w ckpt.Encoder, ev *Event) {
	w.U64(ev.Seq)
	w.Dur(ev.At)
	w.U8(uint8(ev.Kind))
	w.Str(ev.Verb)
	w.Str(ev.App)
	w.Str(ev.Object)
	w.Str(ev.Node)
	w.Str(ev.Detail)
	w.F64(ev.PerfErr)
	w.F64(ev.SLI)
	w.F64(ev.Objective)
	w.F64(ev.Offered)
	w.Int(ev.Replicas)
	w.Int(ev.Ready)
	w.Int(ev.NewReplicas)
	ev.Alloc.CkptSave(w)
	ev.NewAlloc.CkptSave(w)
	ev.Util.CkptSave(w)
	w.Bool(ev.HasCtrl)
	if ev.HasCtrl {
		SaveControlTrace(w, ev.Ctrl)
	}
}

// loadEvent reads a record written by saveEvent.
func loadEvent(r *ckpt.Reader) (Event, error) {
	ev := Event{Seq: r.U64(), At: r.Dur(), Kind: Kind(r.U8())}
	if r.Err() == nil && ev.Kind >= numKinds {
		return Event{}, fmt.Errorf("obs: ckpt: event kind %d out of range", ev.Kind)
	}
	ev.Verb, ev.App, ev.Object, ev.Node, ev.Detail = r.Str(), r.Str(), r.Str(), r.Str(), r.Str()
	ev.PerfErr, ev.SLI, ev.Objective, ev.Offered = r.F64(), r.F64(), r.F64(), r.F64()
	ev.Replicas, ev.Ready, ev.NewReplicas = r.Int(), r.Int(), r.Int()
	ev.Alloc, ev.NewAlloc, ev.Util = resource.LoadVector(r), resource.LoadVector(r), resource.LoadVector(r)
	if ev.HasCtrl = r.Bool(); ev.HasCtrl {
		ev.Ctrl = LoadControlTrace(r)
	}
	return ev, r.Err()
}

// saveSpan writes one span as a fixed binary record; like saveEvent,
// RecordSpan encodes with it into the span ring.
func saveSpan(w ckpt.Encoder, sp *Span) {
	w.U64(sp.ID)
	w.U64(sp.Parent)
	w.U8(uint8(sp.Kind))
	w.Str(sp.App)
	w.Str(sp.Object)
	w.Str(sp.Node)
	w.Str(sp.Detail)
	w.I64(int64(sp.Shard))
	w.Dur(sp.Start)
	w.Dur(sp.End)
	w.I64(sp.WallNs)
}

// loadSpan reads a record written by saveSpan.
func loadSpan(r *ckpt.Reader) (Span, error) {
	sp := Span{ID: r.U64(), Parent: r.U64(), Kind: SpanKind(r.U8())}
	if r.Err() == nil && sp.Kind >= numSpanKinds {
		return Span{}, fmt.Errorf("obs: ckpt: span kind %d out of range", sp.Kind)
	}
	sp.App, sp.Object, sp.Node, sp.Detail = r.Str(), r.Str(), r.Str(), r.Str()
	shard := r.I64()
	if r.Err() == nil && (shard < math.MinInt32 || shard > math.MaxInt32) {
		return Span{}, fmt.Errorf("obs: ckpt: span shard %d out of range", shard)
	}
	sp.Shard = int32(shard)
	sp.Start, sp.End = r.Dur(), r.Dur()
	sp.WallNs = r.I64()
	return sp, r.Err()
}

// saveRing writes a ring's header — capacity, sequence, drop count and
// record count — then its records oldest first, as references to the
// bytes the ring already holds.
func saveRing(w *ckpt.Writer, ring *Ring, seq, dropped uint64) {
	w.Int(ring.Cap())
	w.U64(seq)
	w.U64(dropped)
	w.Int(ring.n)
	ring.Ref(w)
}

// loadRing reads a ring written by saveRing into ring, decoding every
// record with load so a corrupt one is an error, then keeping the
// record's exact bytes. It returns the sequence and drop counters.
func loadRing[T any](r *ckpt.Reader, ring *Ring, what string, load func(*ckpt.Reader) (T, error)) (seq, dropped uint64, err error) {
	if c := r.Int(); r.Err() == nil && c != ring.Cap() {
		return 0, 0, fmt.Errorf("obs: ckpt: %s ring capacity %d, checkpoint %d", what, ring.Cap(), c)
	}
	seq, dropped = r.U64(), r.U64()
	n := r.Int()
	if r.Err() != nil {
		return 0, 0, r.Err()
	}
	if n < 0 || n > ring.Cap() {
		return 0, 0, fmt.Errorf("obs: ckpt: %s count %d exceeds ring %d", what, n, ring.Cap())
	}
	ring.Reset()
	for i := 0; i < n; i++ {
		rest := r.Rest()
		if _, err := load(r); err != nil {
			return 0, 0, err
		}
		ring.Push(rest[:len(rest)-len(r.Rest())])
	}
	return seq, dropped, nil
}

// CkptSave writes the tracer's full state: both rings (oldest first, as
// binary records that round-trip every field bit for bit), sequence and
// drop counters, and the latency histograms. Sinks and their latched
// errors are caller-owned wiring and deliberately excluded.
func (t *Tracer) CkptSave(w *ckpt.Writer) {
	w.Begin("tracer")
	w.Bool(t.Enabled())
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	saveRing(w, &t.events, t.seq, t.dropped)
	saveRing(w, &t.spans, t.spanSeq, t.spanDropped)
	for k := range t.lat {
		saveLatHist(w, &t.lat[k])
	}
	w.Int(len(t.phase))
	for i := range t.phase {
		present := t.phase[i].Counts != nil
		w.Bool(present)
		if present {
			saveLatHist(w, &t.phase[i])
		}
	}
}

// CkptLoad restores state written by CkptSave into a tracer constructed
// with the same capacity. Every ring record is decoded and validated
// before its bytes are kept. Sinks should be attached after the load.
func (t *Tracer) CkptLoad(r *ckpt.Reader) error {
	r.Begin("tracer")
	enabled := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if enabled != t.Enabled() {
		return fmt.Errorf("obs: ckpt: tracer enabled=%v, checkpoint %v", t.Enabled(), enabled)
	}
	if !enabled {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var err error
	if t.seq, t.dropped, err = loadRing(r, &t.events, "event", loadEvent); err != nil {
		return err
	}
	if t.spanSeq, t.spanDropped, err = loadRing(r, &t.spans, "span", loadSpan); err != nil {
		return err
	}

	for k := range t.lat {
		if err := loadLatHist(r, &t.lat[k]); err != nil {
			return err
		}
	}
	np := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if np < 0 || np > 1<<16 {
		return fmt.Errorf("obs: ckpt: phase histogram count %d out of range", np)
	}
	t.phase = t.phase[:0]
	for i := 0; i < np; i++ {
		t.phase = append(t.phase, LatencyHistogram{})
		if r.Bool() {
			if err := loadLatHist(r, &t.phase[i]); err != nil {
				return err
			}
		}
	}
	return r.Err()
}
