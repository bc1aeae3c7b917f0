package obs

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"evolve/internal/ckpt"
)

// ringFixture generates a reproducible random mix of every event and
// span kind carrying awkward strings and floats. Every 37th record
// carries a Detail larger than one chunk.
type ringFixture struct {
	rng *rand.Rand
	i   int
}

func (f *ringFixture) str() string { return awkwardStrings[f.rng.Intn(len(awkwardStrings))] }

func (f *ringFixture) float() float64 { return awkwardFloats[f.rng.Intn(len(awkwardFloats))] }

func (f *ringFixture) detail() string {
	f.i++
	if f.i%37 == 0 {
		return strings.Repeat("d", ckpt.ChunkSize+f.rng.Intn(100)) + f.str()
	}
	return f.str()
}

func (f *ringFixture) event() Event {
	ev := Event{
		At: time.Duration(f.rng.Int63()), Kind: Kind(f.rng.Intn(int(numKinds))), Verb: f.str(),
		App: f.str(), Object: f.str(), Node: f.str(), Detail: f.detail(),
		PerfErr: f.float(), SLI: f.float(), Objective: f.float(), Offered: f.float(),
		Replicas: f.rng.Int() - f.rng.Int(), Ready: f.rng.Int(), NewReplicas: -f.rng.Int(),
		Alloc: awkwardVec(f.rng.Intn(9)), NewAlloc: awkwardVec(f.rng.Intn(9)), Util: awkwardVec(f.rng.Intn(9)),
	}
	if ev.HasCtrl = ev.Kind == KindControl && f.rng.Intn(2) == 0; ev.HasCtrl {
		ev.Ctrl = ControlTrace{Stage: f.str(), UtilTarget: f.float(), Adaptations: f.rng.Int(), FlooredKinds: -f.rng.Int()}
		for r := range ev.Ctrl.Terms {
			ev.Ctrl.Terms[r] = PIDTerm{Err: f.float(), P: f.float(), I: f.float(), D: f.float(), Out: f.float(), Clamped: f.rng.Intn(2) == 0}
			ev.Ctrl.Gains[r] = GainSet{Kp: f.float(), Ki: f.float(), Kd: f.float()}
		}
	}
	return ev
}

func (f *ringFixture) span() Span {
	return Span{
		Parent: f.rng.Uint64(), Kind: SpanKind(f.rng.Intn(int(numSpanKinds))),
		App: f.str(), Object: f.str(), Node: f.str(), Detail: f.detail(),
		Shard: f.rng.Int31() - f.rng.Int31(), Start: time.Duration(f.rng.Int63() - f.rng.Int63()), End: time.Duration(f.rng.Int63() - f.rng.Int63()),
		WallNs: f.rng.Int63() - f.rng.Int63(),
	}
}

// retained returns the bytes the ring's chunks occupy, spare included.
func (r *Ring) retained() int {
	n := cap(r.spare)
	for _, c := range r.chunks {
		n += cap(c.buf)
	}
	return n
}

// sameRecords reports whether got equals want bit for bit.
func sameRecords(got, want any) bool {
	a, b := reflect.ValueOf(got), reflect.ValueOf(want)
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !bitsEqual(a.Index(i), b.Index(i)) {
			return false
		}
	}
	return true
}

// lastN returns the last n elements of s (all of s when shorter).
func lastN[T any](s []T, n int) []T { return s[max(0, len(s)-n):] }

// decodeTracerSection decodes the ring records of a CkptSave section
// with loadEvent and loadSpan.
func decodeTracerSection(t *testing.T, tr *Tracer) ([]Event, []Span) {
	t.Helper()
	w := ckpt.NewBufferWriter(nil)
	tr.CkptSave(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := ckpt.NewReader(w.Segments().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r.Begin("tracer")
	r.Bool()
	var evs []Event
	r.Int()
	r.U64()
	r.U64()
	for n := r.Int(); n > 0; n-- {
		ev, err := loadEvent(r)
		if err != nil {
			t.Fatalf("decoding the saved event ring: %v", err)
		}
		evs = append(evs, ev)
	}
	var sps []Span
	r.Int()
	r.U64()
	r.U64()
	for n := r.Int(); n > 0; n-- {
		sp, err := loadSpan(r)
		if err != nil {
			t.Fatalf("decoding the saved span ring: %v", err)
		}
		sps = append(sps, sp)
	}
	return evs, sps
}

// TestRecordRingMatchesModel checks the record ring against a plain
// keep-everything slice after every record: snapshots (with and without
// Lim), counters and the checkpoint section hold exactly the model's
// last capacity records, and the chunks retain at most two chunks more
// than the live encoded bytes.
func TestRecordRingMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		f := &ringFixture{rng: rand.New(rand.NewSource(int64(capacity)))}
		tr := New(capacity)
		var evModel []Event
		var spModel []Span
		for step := 0; step < 300; step++ {
			switch op := f.rng.Intn(4); {
			case op == 0:
				ev := f.event()
				tr.Record(ev)
				ev.Seq = uint64(len(evModel) + 1)
				evModel = append(evModel, ev)
			case op == 1:
				batch := []Event{f.event(), f.event(), f.event()}
				tr.RecordBatch(batch)
				for _, ev := range batch {
					ev.Seq = uint64(len(evModel) + 1)
					evModel = append(evModel, ev)
				}
			default:
				sp := f.span()
				if id := tr.RecordSpan(sp); id != uint64(len(spModel)+1) {
					t.Fatalf("cap %d: span ID %d, want %d", capacity, id, len(spModel)+1)
				}
				sp.ID = uint64(len(spModel) + 1)
				spModel = append(spModel, sp)
			}

			wantEv, wantSp := lastN(evModel, capacity), lastN(spModel, capacity)
			// Spans ending before 0 fail even the zero filter's window.
			var matchEv []Event
			for i := range wantEv {
				if (Filter{}).Match(&wantEv[i]) {
					matchEv = append(matchEv, wantEv[i])
				}
			}
			var matchSp []Span
			for i := range wantSp {
				if (SpanFilter{}).Match(&wantSp[i]) {
					matchSp = append(matchSp, wantSp[i])
				}
			}
			lim := 1 + f.rng.Intn(capacity+1)
			if !sameRecords(tr.Snapshot(Filter{}), matchEv) || !sameRecords(tr.Snapshot(Filter{Lim: lim}), lastN(matchEv, lim)) {
				t.Fatalf("cap %d step %d: event snapshot differs from the model's last %d events", capacity, step, capacity)
			}
			if !sameRecords(tr.SpanSnapshot(SpanFilter{}), matchSp) || !sameRecords(tr.SpanSnapshot(SpanFilter{Lim: lim}), lastN(matchSp, lim)) {
				t.Fatalf("cap %d step %d: span snapshot differs from the model's last %d spans", capacity, step, capacity)
			}
			if tr.Len() != len(wantEv) || tr.Dropped() != uint64(len(evModel)-len(wantEv)) || tr.Events() != uint64(len(evModel)) {
				t.Fatalf("cap %d step %d: Len/Dropped/Events = %d/%d/%d, model %d/%d/%d", capacity, step,
					tr.Len(), tr.Dropped(), tr.Events(), len(wantEv), len(evModel)-len(wantEv), len(evModel))
			}
			if tr.SpanLen() != len(wantSp) || tr.SpansDropped() != uint64(len(spModel)-len(wantSp)) || tr.Spans() != uint64(len(spModel)) {
				t.Fatalf("cap %d step %d: SpanLen/SpansDropped/Spans = %d/%d/%d, model %d/%d/%d", capacity, step,
					tr.SpanLen(), tr.SpansDropped(), tr.Spans(), len(wantSp), len(spModel)-len(wantSp), len(spModel))
			}
			gotEv, gotSp := decodeTracerSection(t, tr)
			if !sameRecords(gotEv, wantEv) || !sameRecords(gotSp, wantSp) {
				t.Fatalf("cap %d step %d: checkpoint section holds different records than the model", capacity, step)
			}
			for _, ring := range []*Ring{&tr.events, &tr.spans} {
				if ring.retained() > ring.live+2*ckpt.ChunkSize {
					t.Fatalf("cap %d step %d: ring retains %d bytes for %d live", capacity, step, ring.retained(), ring.live)
				}
			}
		}
	}
}

// recordMix is a steady cycle of realistic records: a control decision
// with its PID decomposition, a bind, a fault and a lifecycle span.
func recordMix(tr *Tracer, i int) {
	ctrl := Event{At: time.Duration(i) * time.Second, Kind: KindControl, Verb: VerbDecide, App: "web",
		PerfErr: 0.5, SLI: 0.1, Objective: 0.1, Offered: 300, Replicas: 3, Ready: 3, NewReplicas: 4,
		HasCtrl: true, Ctrl: ControlTrace{Stage: "grow", UtilTarget: 0.7}}
	bind := Event{At: time.Duration(i) * time.Second, Kind: KindSched, Verb: VerbBind, App: "web", Object: "web-17", Node: "node-3"}
	fault := Event{Kind: KindFault, Verb: VerbRetry, App: "db", Detail: "actuation failed"}
	switch i % 4 {
	case 0:
		tr.Record(ctrl)
	case 1:
		tr.RecordBatch([]Event{bind, fault})
	case 2:
		tr.Record(bind)
	default:
		tr.RecordSpan(Span{Kind: SpanLifecycle, App: "web", Object: "web-17", Node: "node-3", Start: time.Second, End: time.Minute})
	}
}

// TestRingRecordAllocs is the record ring's allocation gate. Once both
// rings have wrapped, Record, RecordBatch and RecordSpan allocate
// nothing over more than a capacity's worth of records, so evicted
// chunks are being recycled. Before the wrap, the rings allocate no more
// than one chunk per ChunkSize of records, rounded up.
func TestRingRecordAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short")
	}
	const capacity = 512
	tr := New(capacity)
	var before, after runtime.MemStats
	i := 0
	recordMix(tr, i) // size the encode buffer
	i++
	runtime.ReadMemStats(&before)
	for ; tr.Dropped() == 0 || tr.SpansDropped() == 0; i++ {
		recordMix(tr, i)
	}
	runtime.ReadMemStats(&after)
	live := tr.events.live + tr.spans.live
	if chunks := (live+ckpt.ChunkSize-1)/ckpt.ChunkSize + 2; after.TotalAlloc-before.TotalAlloc > uint64(chunks*ckpt.ChunkSize) {
		t.Errorf("filling the rings with %d record bytes allocated %d bytes, want at most %d chunks",
			live, after.TotalAlloc-before.TotalAlloc, chunks)
	}
	// RecordBatch's slice literal stays on the stack; a run of 8 ×
	// capacity calls cycles each ring's chunks several times.
	allocs := testing.AllocsPerRun(1, func() {
		for n := 0; n < 8*capacity; n++ {
			recordMix(tr, i)
			i++
		}
	})
	if allocs != 0 {
		t.Errorf("wrapped rings allocated %v times over %d records, want 0", allocs, 8*capacity)
	}
}

// TestRingPinsReferencedChunks: a chunk that an in-memory checkpoint
// references is never recycled. After a buffer-writer save of wrapped
// rings, one oversized event (pushOversized retires the pinned tail)
// and at least 2 × capacity more records per ring (every chunk held at
// the save is evicted) leave the saved segments untouched: they materialise to the
// bytes taken at the save and restore the records held then.
func TestRingPinsReferencedChunks(t *testing.T) {
	const capacity = 256
	tr := New(capacity)
	i := 0
	for ; tr.Dropped() == 0 || tr.SpansDropped() == 0; i++ {
		recordMix(tr, i)
	}
	wantEv, wantSp := tr.Snapshot(Filter{}), tr.SpanSnapshot(SpanFilter{})
	w := ckpt.NewBufferWriter(nil)
	tr.CkptSave(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := w.Segments()
	want := segs.Bytes()

	first := func(c chunk) *byte { return &c.buf[:1][0] }
	saved := map[*byte]bool{}
	for _, ring := range []*Ring{&tr.events, &tr.spans} {
		for _, c := range ring.chunks {
			if !c.pinned {
				t.Fatal("a chunk the buffer writer kept is not pinned")
			}
			saved[first(c)] = true
		}
	}
	tail := tr.events.chunks[len(tr.events.chunks)-1]
	if cap(tail.buf) != ckpt.ChunkSize || len(tail.buf) == 0 {
		t.Fatalf("event ring tail is %d of %d bytes, want a partly filled ChunkSize chunk", len(tail.buf), cap(tail.buf))
	}
	tr.Record(Event{Kind: KindFault, Verb: VerbRetry, Detail: strings.Repeat("o", ckpt.ChunkSize+1)})
	if c := tr.events.chunks[len(tr.events.chunks)-1]; cap(c.buf) == ckpt.ChunkSize {
		t.Fatal("the oversized event did not take the pushOversized path")
	}
	if sp := tr.events.spare; sp != nil && &sp[:1][0] == first(tail) {
		t.Fatal("pushOversized made the pinned tail the spare")
	}
	held := func() bool {
		for _, ring := range []*Ring{&tr.events, &tr.spans} {
			for _, c := range ring.chunks {
				if saved[first(c)] {
					return true
				}
			}
		}
		return false
	}
	// recordMix records one span per four calls.
	for n := 0; n < 8*capacity || held(); n++ {
		if n > 64*capacity {
			t.Fatal("chunks held at the save are never evicted")
		}
		recordMix(tr, i)
		i++
	}

	got := segs.Bytes()
	if !bytes.Equal(got, want) {
		t.Fatal("the saved segments changed after their chunks were evicted")
	}
	r, err := ckpt.NewReader(got)
	if err != nil {
		t.Fatal(err)
	}
	restored := New(capacity)
	if err := restored.CkptLoad(r); err != nil {
		t.Fatal(err)
	}
	if !sameRecords(restored.Snapshot(Filter{}), wantEv) || !sameRecords(restored.SpanSnapshot(SpanFilter{}), wantSp) {
		t.Fatal("the saved segments restore different records than were held at the save")
	}
}

// BenchmarkTracerCkptSave measures the tracer section's encoding
// throughput (MB/s) on wrapped DefaultCapacity rings.
func BenchmarkTracerCkptSave(b *testing.B) {
	tr := New(DefaultCapacity)
	for i := 0; tr.Dropped() == 0 || tr.SpansDropped() == 0; i++ {
		recordMix(tr, i)
	}
	w := ckpt.NewWriter(io.Discard)
	tr.CkptSave(w)
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	size := tr.events.live + tr.spans.live
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := ckpt.NewWriter(io.Discard)
		tr.CkptSave(w)
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
