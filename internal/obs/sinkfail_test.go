package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/metrics"
)

// flakyWriter succeeds for the first ok writes, then fails every call.
type flakyWriter struct {
	ok   int
	n    int
	fail int
	buf  bytes.Buffer
}

var errDiskFull = errors.New("disk full")

func (f *flakyWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > f.ok {
		f.fail++
		return 0, errDiskFull
	}
	return f.buf.Write(p)
}

// TestSinkFailureMidRun: a sink that dies mid-run keeps the lines it
// already accepted, latches the first error, and is never written again
// — while the ring keeps recording unaffected.
func TestSinkFailureMidRun(t *testing.T) {
	tr := New(64)
	fw := &flakyWriter{ok: 3}
	tr.SetSink(fw)
	for i := 0; i < 8; i++ {
		tr.Record(Event{At: time.Duration(i) * time.Second, Kind: KindSched, Verb: VerbBind, App: "web"})
	}
	if got := tr.SinkErr(); !errors.Is(got, errDiskFull) {
		t.Fatalf("SinkErr = %v, want %v", got, errDiskFull)
	}
	if fw.fail != 1 {
		t.Fatalf("sink failed %d times, want 1 (latched after first)", fw.fail)
	}
	evs, err := ReadTrace(bytes.NewReader(fw.buf.Bytes()))
	if err != nil || len(evs) != 3 {
		t.Fatalf("sink kept %d parseable events (err %v), want the 3 pre-failure lines", len(evs), err)
	}
	if tr.Len() != 8 || tr.Events() != 8 {
		t.Fatalf("ring Len/Events = %d/%d after sink death, want 8/8", tr.Len(), tr.Events())
	}
}

// TestSpanSinkFailureMidRun: the span tee latches independently of the
// event tee; a dead span sink does not stop event sink writes.
func TestSpanSinkFailureMidRun(t *testing.T) {
	tr := New(64)
	var events bytes.Buffer
	fw := &flakyWriter{ok: 2}
	tr.SetSink(&events)
	tr.SetSpanSink(fw)
	for i := 0; i < 6; i++ {
		d := time.Duration(i) * time.Second
		tr.RecordSpan(Span{Kind: SpanPending, App: "web", Object: "web-1", Shard: -1, Start: d, End: d + time.Second})
		tr.Record(Event{At: d, Kind: KindSched, Verb: VerbBind, App: "web"})
	}
	if got := tr.SpanSinkErr(); !errors.Is(got, errDiskFull) {
		t.Fatalf("SpanSinkErr = %v, want %v", got, errDiskFull)
	}
	if tr.SinkErr() != nil {
		t.Fatalf("event SinkErr = %v, want nil (independent tees)", tr.SinkErr())
	}
	sps, err := ReadSpans(bytes.NewReader(fw.buf.Bytes()))
	if err != nil || len(sps) != 2 {
		t.Fatalf("span sink kept %d spans (err %v), want 2", len(sps), err)
	}
	if evs, err := ReadTrace(bytes.NewReader(events.Bytes())); err != nil || len(evs) != 6 {
		t.Fatalf("event sink kept %d events (err %v), want all 6", len(evs), err)
	}
}

// TestMetricsSurfaceSinkHealth: /metrics exposes latched sink errors and
// ring drop counters, so silent trace loss is scrapeable.
func TestMetricsSurfaceSinkHealth(t *testing.T) {
	tr := New(4) // tiny rings: force drops
	tr.SetSink(&flakyWriter{ok: 0})
	tr.SetSpanSink(&flakyWriter{ok: 1})
	for i := 0; i < 10; i++ {
		d := time.Duration(i) * time.Second
		tr.Record(Event{At: d, Kind: KindSched, Verb: VerbBind, App: "web"})
		tr.RecordSpan(Span{Kind: SpanPending, App: "web", Shard: -1, Start: d, End: d})
	}
	if tr.Dropped() != 6 || tr.SpansDropped() != 6 {
		t.Fatalf("Dropped/SpansDropped = %d/%d, want 6/6", tr.Dropped(), tr.SpansDropped())
	}
	var out bytes.Buffer
	if err := WriteMetrics(&out, metrics.NewRegistry(), tr); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	for _, want := range []string{
		"evolve_trace_dropped_total 6",
		"evolve_trace_span_dropped_total 6",
		"evolve_trace_sink_error 1",
		"evolve_trace_span_sink_error 1",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestTracerCkptRoundTrip: a tracer's rings, counters and histograms
// survive CkptSave/CkptLoad into a same-capacity tracer — including a
// wrapped ring, whose snapshot order and drop accounting must be
// preserved bit-for-bit.
func TestTracerCkptRoundTrip(t *testing.T) {
	tr := New(8)
	for i := 0; i < 13; i++ { // wraps the 8-slot rings
		d := time.Duration(i) * time.Second
		tr.Record(Event{At: d, Kind: KindSched, Verb: VerbBind, App: "web", Object: "web-1", Replicas: i})
		tr.RecordSpan(Span{Kind: SpanPending, App: "web", Object: "web-1", Shard: -1, Start: d, End: d + time.Second})
		tr.ObserveLatency(LatencyTimeToReady, float64(i), uint64(i+1))
		tr.ObservePhaseLatency(0, "p1", float64(i)*1e-4, 0)
	}

	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	tr.CkptSave(w)
	if err := w.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}

	tr2 := New(8)
	r, err := ckpt.NewReader(buf.Bytes())
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if err := tr2.CkptLoad(r); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	if tr2.Events() != tr.Events() || tr2.Dropped() != tr.Dropped() {
		t.Errorf("Events/Dropped = %d/%d, want %d/%d", tr2.Events(), tr2.Dropped(), tr.Events(), tr.Dropped())
	}
	if tr2.Spans() != tr.Spans() || tr2.SpansDropped() != tr.SpansDropped() {
		t.Errorf("Spans/SpansDropped = %d/%d, want %d/%d", tr2.Spans(), tr2.SpansDropped(), tr.Spans(), tr.SpansDropped())
	}
	a, b := tr.Snapshot(Filter{}), tr2.Snapshot(Filter{})
	if len(a) != len(b) {
		t.Fatalf("snapshot lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	sa, sb := tr.SpanSnapshot(SpanFilter{}), tr2.SpanSnapshot(SpanFilter{})
	if len(sa) != len(sb) {
		t.Fatalf("span snapshot lengths %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Errorf("span %d: %+v vs %+v", i, sa[i], sb[i])
		}
	}
	ha, hb := tr.LatencySnapshot(), tr2.LatencySnapshot()
	if len(ha) != len(hb) {
		t.Fatalf("histogram counts %d vs %d", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i].Name != hb[i].Name || ha[i].Count != hb[i].Count || ha[i].Sum != hb[i].Sum ||
			ha[i].Max != hb[i].Max || ha[i].Exemplar != hb[i].Exemplar {
			t.Errorf("histogram %s diverged: %+v vs %+v", ha[i].Name, ha[i], hb[i])
		}
	}

	// Continued recording behaves identically: same seqs, same evictions.
	next := Event{At: 99 * time.Second, Kind: KindSched, Verb: VerbBind, App: "web"}
	tr.Record(next)
	tr2.Record(next)
	a, b = tr.Snapshot(Filter{}), tr2.Snapshot(Filter{})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("post-restore event %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}
