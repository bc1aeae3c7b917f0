package obs

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/resource"
)

// awkwardStrings and awkwardFloats are the values a text encoding of the
// rings gets wrong: quoting, escapes, control bytes, invalid UTF-8, and
// the floats JSON cannot carry.
var (
	awkwardStrings = []string{"", `a "quoted" \ name`, "line\nbreak\r\ttab", "ctl\x00\x01\x1f\x7f", "bad utf8 \xff\xfe", "世界"}
	awkwardFloats  = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, math.MaxFloat64, 0.1}
)

func awkwardVec(i int) resource.Vector {
	var v resource.Vector
	for k := range v {
		v[k] = awkwardFloats[(i+k)%len(awkwardFloats)]
	}
	return v
}

// bitsEqual compares a and b field by field, floats by their bit
// patterns, so NaN payloads and -0 count.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

func ckptRoundTrip(t *testing.T, tr *Tracer, capacity int) (*Tracer, error) {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	tr.CkptSave(w)
	if err := w.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	r, err := ckpt.NewReader(buf.Bytes())
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	out := New(capacity)
	if err := out.CkptLoad(r); err != nil {
		return nil, err
	}
	return out, r.Close()
}

// TestTracerCkptRecordsBitExact round-trips every event and span kind
// carrying awkward strings and non-finite floats: the restored rings
// must equal the originals bit for bit.
func TestTracerCkptRecordsBitExact(t *testing.T) {
	tr := New(64)
	i := 0
	for k := Kind(0); k < numKinds; k++ {
		for _, s := range awkwardStrings {
			f := func(j int) float64 { return awkwardFloats[(i+j)%len(awkwardFloats)] }
			ev := Event{
				At: time.Duration(i) * time.Second, Kind: k, Verb: s, App: s + "a", Object: s + "o", Node: s + "n", Detail: s,
				PerfErr: f(0), SLI: f(1), Objective: f(2), Offered: f(3),
				Replicas: -i, Ready: i, NewReplicas: math.MaxInt64 - i,
				Alloc: awkwardVec(i), NewAlloc: awkwardVec(i + 1), Util: awkwardVec(i + 2),
			}
			if k == KindControl {
				ev.HasCtrl = true
				ev.Ctrl = ControlTrace{Stage: s, UtilTarget: f(4), Adaptations: i, FlooredKinds: -1}
				for r := range ev.Ctrl.Terms {
					ev.Ctrl.Terms[r] = PIDTerm{Err: f(r), P: f(r + 1), I: f(r + 2), D: f(r + 3), Out: f(r + 4), Clamped: r%2 == 0}
					ev.Ctrl.Gains[r] = GainSet{Kp: f(r + 5), Ki: f(r + 6), Kd: f(r)}
				}
			}
			tr.Record(ev)
			i++
		}
	}
	for k := SpanKind(0); k < numSpanKinds; k++ {
		for j, s := range awkwardStrings {
			tr.RecordSpan(Span{Parent: uint64(j), Kind: k, App: s, Object: s + "o", Node: s + "n", Detail: s,
				Shard: int32(j - 1), Start: time.Duration(j), End: -time.Duration(j), WallNs: math.MinInt64 + int64(j)})
		}
	}

	got, err := ckptRoundTrip(t, tr, 64)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, c := range []struct {
		name string
		a, b any
	}{
		{"events", tr.Snapshot(Filter{}), got.Snapshot(Filter{})},
		{"spans", tr.SpanSnapshot(SpanFilter{}), got.SpanSnapshot(SpanFilter{})},
	} {
		a, b := reflect.ValueOf(c.a), reflect.ValueOf(c.b)
		if a.Len() != b.Len() {
			t.Fatalf("%s: %d restored, want %d", c.name, b.Len(), a.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				t.Fatalf("%s[%d] differs after restore:\n got %+v\nwant %+v", c.name, i, b.Index(i), a.Index(i))
			}
		}
	}
}

// TestTracerCkptRejectsBadKinds: a kind byte outside the taxonomy is a
// load error, not an event the tracer later indexes tables with.
func TestTracerCkptRejectsBadKinds(t *testing.T) {
	ev := New(4)
	ev.Record(Event{Kind: numKinds})
	if _, err := ckptRoundTrip(t, ev, 4); err == nil || !strings.Contains(err.Error(), "event kind") {
		t.Errorf("event kind %d: got %v, want a range error", numKinds, err)
	}
	sp := New(4)
	sp.RecordSpan(Span{Kind: numSpanKinds})
	if _, err := ckptRoundTrip(t, sp, 4); err == nil || !strings.Contains(err.Error(), "span kind") {
		t.Errorf("span kind %d: got %v, want a range error", numSpanKinds, err)
	}
}
