package metrics

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"evolve/internal/ckpt"
)

// The retention-window spec: a windowed series must answer every query
// it accepts exactly as a keep-all twin fed the same samples would, keep
// whole-run aggregates bit-equal to the twin's full scans, and refuse —
// by panicking — any window that reaches past what it retains.

// randomStream returns n samples in non-decreasing time order that
// start at or before 0 and mix equal timestamps, tick-sized steps and
// gaps longer than history.
func randomStream(rng *rand.Rand, n int, history time.Duration) []Sample {
	out := make([]Sample, n)
	at := -time.Duration(rng.Intn(3)) * time.Second
	for i := range out {
		switch r := rng.Intn(10); {
		case r < 2: // equal timestamp
		case r < 9:
			at += time.Duration(1+rng.Intn(5000)) * time.Millisecond
		default:
			at += history + time.Duration(rng.Intn(3000))*time.Millisecond
		}
		out[i] = Sample{at, rng.NormFloat64() * 100}
	}
	return out
}

// sameBits compares floats bit for bit (distinguishes -0 from 0).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// panics reports whether f panics with a message naming the series.
func panics(name string, f func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ := r.(string)
			ok = strings.Contains(msg, `"`+name+`"`)
		}
	}()
	f()
	return false
}

// checkAgainstTwin compares every query w accepts with twin's answer and
// checks that w refuses a window starting before its oldest sample.
func checkAgainstTwin(t *testing.T, rng *rand.Rand, w, twin *Series) {
	t.Helper()
	last, _ := twin.Last()
	to := last.At + time.Duration(rng.Intn(4000))*time.Millisecond
	tot := w.Total()
	if tot.Count != twin.Len() || !sameBits(tot.Mean(), twin.AllStats().Mean) {
		t.Fatalf("Total count %d mean %v, twin %d %v", tot.Count, tot.Mean(), twin.Len(), twin.AllStats().Mean)
	}
	if got, want := tot.TimeWeightedMean(to), twin.TimeWeightedMean(0, to); !sameBits(got, want) {
		t.Fatalf("Total time-weighted mean to %v = %v, twin %v", to, got, want)
	}
	kept := w.Samples()
	if want := twin.Window(last.At-w.f.history, last.At); !slices.Equal(kept, want) {
		t.Fatalf("retained %d samples, want the %d with At > %v", len(kept), len(want), last.At-w.f.history)
	}
	// In-window queries, from the oldest retained sample on.
	for range 4 {
		from := kept[rng.Intn(len(kept))].At - time.Duration(rng.Intn(2))*time.Nanosecond
		if w.Total().Count > len(kept) && from < kept[0].At {
			from = kept[0].At
		}
		qto := from + time.Duration(rng.Intn(20000))*time.Millisecond
		if !slices.Equal(w.Window(from, qto), twin.Window(from, qto)) {
			t.Fatalf("Window(%v, %v) differs", from, qto)
		}
		if got, want := w.TimeWeightedMean(from, qto), twin.TimeWeightedMean(from, qto); !sameBits(got, want) {
			t.Fatalf("TimeWeightedMean(%v, %v) = %v, twin %v", from, qto, got, want)
		}
		p := rng.Float64() * 100
		if got, want := w.Percentile(from, qto, p), twin.Percentile(from, qto, p); !sameBits(got, want) {
			t.Fatalf("Percentile(%v, %v, %v) = %v, twin %v", from, qto, p, got, want)
		}
		if got, want := w.WindowStats(from, qto), twin.WindowStats(from, qto); got != want {
			t.Fatalf("WindowStats(%v, %v) = %+v, twin %+v", from, qto, got, want)
		}
	}
	if w.Total().Count == len(kept) {
		return
	}
	// Older windows are refused, never truncated.
	from := kept[0].At - 1
	for name, q := range map[string]func(){
		"Window":           func() { w.Window(from, to) },
		"WindowStats":      func() { w.WindowStats(from, to) },
		"Percentile":       func() { w.Percentile(from, to, 50) },
		"Percentiles":      func() { w.Percentiles(from, to, 50, 99) },
		"FractionAbove":    func() { w.FractionAbove(from, to, 0) },
		"TimeWeightedMean": func() { w.TimeWeightedMean(from, to) },
		"AllStats":         func() { w.AllStats() },
	} {
		if !panics(w.Name, q) {
			t.Fatalf("%s from %v (oldest retained %v) did not panic naming the series", name, from, kept[0].At)
		}
	}
}

func TestWindowedSeriesMatchesKeepAllTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := range 60 {
		history := time.Duration(1+rng.Intn(40)) * time.Second
		w := NewWindowedSeries("w", history)
		twin := NewSeries("twin")
		for i, sm := range randomStream(rng, 50+rng.Intn(400), history) {
			w.Add(sm.At, sm.Value)
			twin.Add(sm.At, sm.Value)
			if i%7 == 0 {
				checkAgainstTwin(t, rng, w, twin)
			}
		}
		checkAgainstTwin(t, rng, w, twin)
		if w.Total().Count == w.Len() {
			t.Fatalf("trial %d evicted nothing; the stream is too short to test retention", trial)
		}
	}
}

// TestPercentileAfterSameLengthCompaction: a compaction can leave the
// backing slice at the length the memo saw while its contents moved on;
// the memo must still recompute.
func TestPercentileAfterSameLengthCompaction(t *testing.T) {
	s := NewWindowedSeries("lat", 4*time.Second)
	for i := 1; i <= 6; i++ {
		s.Add(sec(float64(i)), 1)
	}
	from, to := sec(5), sec(100)
	if got := s.Percentile(from, to, 100); got != 1 {
		t.Fatalf("p100 = %v, want 1", got)
	}
	n := len(s.f.times)
	s.Add(sec(7), 9)
	if len(s.f.times) != n {
		t.Fatalf("backing length %d after the append, want %d: the scenario needs a compaction", len(s.f.times), n)
	}
	if got := s.Percentile(from, to, 100); got != 9 {
		t.Errorf("p100 after a same-length compaction = %v, want 9 (stale memo)", got)
	}
}

// TestWindowedCheckpointContinues: a round-tripped evicting series —
// restored into a backing array of another capacity — continues exactly
// like the original.
func TestWindowedCheckpointContinues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const history = 30 * time.Second
	stream := randomStream(rng, 600, history)
	orig := NewWindowedRegistry(history, 0)
	twin := NewSeries("twin")
	for _, sm := range stream[:300] {
		orig.Series("s").Add(sm.At, sm.Value)
		twin.Add(sm.At, sm.Value)
	}
	cw := ckpt.NewBufferWriter(nil)
	orig.CkptSave(cw)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cr, err := ckpt.NewReader(cw.Segments().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	restored := NewWindowedRegistry(history, 0)
	if err := restored.CkptLoad(cr); err != nil {
		t.Fatal(err)
	}
	if err := cr.Close(); err != nil {
		t.Fatal(err)
	}
	a, b := orig.Series("s"), restored.Series("s")
	if a.Total().Count == a.Len() {
		t.Fatal("nothing evicted before the checkpoint")
	}
	for i, sm := range stream[300:] {
		a.Add(sm.At, sm.Value)
		b.Add(sm.At, sm.Value)
		twin.Add(sm.At, sm.Value)
		if !slices.Equal(a.Samples(), b.Samples()) || a.Total() != b.Total() {
			t.Fatalf("restored series diverged %d samples after the checkpoint", i+1)
		}
		if i%25 == 0 {
			checkAgainstTwin(t, rng, b, twin)
		}
	}
}

// TestWindowedCheckpointRejectsStaleWindow: a decoded window holding a
// sample older than the retention window is refused.
func TestWindowedCheckpointRejectsStaleWindow(t *testing.T) {
	src := NewRegistry()
	for i := range 20 {
		src.Series("s").Add(sec(float64(i)), 1)
	}
	cw := ckpt.NewBufferWriter(nil)
	src.CkptSave(cw)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cr, err := ckpt.NewReader(cw.Segments().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := NewWindowedRegistry(5*time.Second, 0).CkptLoad(cr); err == nil || !strings.Contains(err.Error(), "retention window") {
		t.Errorf("loading a keep-all window into a 5s registry: %v, want a retention-window error", err)
	}
}
