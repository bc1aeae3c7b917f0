package metrics

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"evolve/internal/ckpt"
)

// saved returns the checkpoint bytes save writes.
func saved(t *testing.T, save func(*ckpt.Writer)) []byte {
	t.Helper()
	cw := ckpt.NewBufferWriter(nil)
	save(cw)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return cw.Segments().Bytes()
}

// reader opens a checkpoint written by saved.
func reader(t *testing.T, blob []byte) *ckpt.Reader {
	t.Helper()
	cr, err := ckpt.NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

func colNames(n int) []string {
	names := make([]string, n)
	for j := range names {
		names[j] = fmt.Sprintf("app/c%02d", j)
	}
	return names
}

// TestFrameColumnsMatchKeepAllTwins extends the retention-window spec to
// frames: every column of a windowed frame answers every query bit for
// bit like an independent keep-all series fed the same samples.
func TestFrameColumnsMatchKeepAllTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := range 30 {
		history := time.Duration(1+rng.Intn(40)) * time.Second
		names := colNames(1 + rng.Intn(17))
		f, err := NewWindowedRegistry(history).Frame(names...)
		if err != nil {
			t.Fatal(err)
		}
		twins := make([]*Series, len(names))
		for j := range twins {
			twins[j] = NewSeries("twin")
		}
		row := make([]float64, len(names))
		check := func() {
			for j, twin := range twins {
				checkAgainstTwin(t, rng, f.Column(j), twin)
			}
		}
		for i, sm := range randomStream(rng, 50+rng.Intn(400), history) {
			for j := range row {
				row[j] = sm.Value * float64(j+1)
				twins[j].Add(sm.At, row[j])
			}
			f.Add(sm.At, row)
			if i%7 == 0 {
				check()
			}
		}
		check()
		if c := f.Column(0); c.Total().Count == c.Len() {
			t.Fatalf("trial %d evicted nothing; the stream is too short to test retention", trial)
		}
	}
}

// TestFrameCheckpointMatchesStandaloneSeries: a frame saves exactly the
// bytes of standalone series fed the same samples, restores as
// one-column frames that Registry.Frame adopts, and continues exactly
// like the original.
func TestFrameCheckpointMatchesStandaloneSeries(t *testing.T) {
	const history = 30 * time.Second
	rng := rand.New(rand.NewSource(5))
	names := colNames(17)
	stream := randomStream(rng, 600, history)
	framed, standalone := NewWindowedRegistry(history), NewWindowedRegistry(history)
	f, err := framed.Frame(names...)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, len(names))
	add := func(fs []*Frame, sm Sample) {
		for j := range row {
			row[j] = sm.Value + float64(j)
		}
		for _, f := range fs {
			f.Add(sm.At, row)
		}
		for j, name := range names {
			standalone.Series(name).Add(sm.At, row[j])
		}
	}
	for _, sm := range stream[:300] {
		add([]*Frame{f}, sm)
	}
	blob := saved(t, framed.CkptSave)
	if want := saved(t, standalone.CkptSave); !bytes.Equal(blob, want) {
		t.Fatal("a frame's checkpoint differs from its columns saved as standalone series")
	}

	restored := NewWindowedRegistry(history)
	held := restored.Series(names[3]) // a pointer taken before the restore
	if err := restored.CkptLoad(reader(t, blob)); err != nil {
		t.Fatal(err)
	}
	g, err := restored.Frame(names...)
	if err != nil {
		t.Fatal(err)
	}
	if g.Column(3) != held {
		t.Fatal("adoption did not keep the existing *Series as the frame's column")
	}
	if again, err := restored.Frame(names...); err != nil || again != g {
		t.Fatalf("resolving the frame again = %p, %v; want the same frame", again, err)
	}
	for i, sm := range stream[300:] {
		add([]*Frame{f, g}, sm)
		for j := range names {
			a, b := f.Column(j), g.Column(j)
			if !slices.Equal(a.Samples(), b.Samples()) || a.Total() != b.Total() {
				t.Fatalf("column %d of the restored frame diverged %d rows after the checkpoint", j, i+1)
			}
		}
	}
	if a, b := saved(t, framed.CkptSave), saved(t, restored.CkptSave); !bytes.Equal(a, b) {
		t.Error("the restored frame saves other bytes than the original")
	}
}

// TestFrameAdoptionRefusesDisagreeingColumns: restored series that do
// not hold the same rows cannot become one frame. The error names the
// odd series, and the registry is left as it was.
func TestFrameAdoptionRefusesDisagreeingColumns(t *testing.T) {
	names := colNames(4)
	build := func(tweak func(j, i int) (time.Duration, bool)) *Registry {
		src := NewRegistry()
		for j, name := range names {
			for i := range 10 {
				if at, ok := tweak(j, i); ok {
					src.Series(name).Add(at, float64(i))
				}
			}
		}
		dst := NewRegistry()
		if err := dst.CkptLoad(reader(t, saved(t, src.CkptSave))); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	for _, c := range []struct {
		name  string
		tweak func(j, i int) (time.Duration, bool)
	}{
		{"shifted timestamp", func(j, i int) (time.Duration, bool) {
			if j == 2 && i == 5 {
				return sec(float64(i) + 0.5), true
			}
			return sec(float64(i)), true
		}},
		{"missing sample", func(j, i int) (time.Duration, bool) { return sec(float64(i)), j != 2 || i != 9 }},
		{"extra series", func(j, i int) (time.Duration, bool) { return sec(float64(i)), j == 2 }},
	} {
		reg := build(c.tweak)
		before := reg.Series(names[2])
		_, err := reg.Frame(names...)
		if err == nil || !strings.Contains(err.Error(), `"`+names[2]+`"`) {
			t.Errorf("%s: Frame = %v, want an error naming %q", c.name, err, names[2])
			continue
		}
		if s := reg.Series(names[2]); s != before || len(s.f.cols) != 1 {
			t.Errorf("%s: the refused adoption changed the series", c.name)
		}
	}

	// A column of one frame cannot join another.
	reg := NewRegistry()
	if one, err := reg.Frame("app/alone"); err != nil || one != reg.Series("app/alone").f {
		t.Fatalf("a one-column frame = %p, %v; want the series' own frame", one, err)
	}
	if _, err := reg.Frame(names...); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Frame(names[1], "app/other"); err == nil || !strings.Contains(err.Error(), names[1]) {
		t.Errorf("re-framing a column = %v, want an error naming it", err)
	}
}

// TestFrameColumnAddPanics: only a frame appends to its columns; Add on
// one column would leave the others a row short.
func TestFrameColumnAddPanics(t *testing.T) {
	f, err := NewRegistry().Frame(colNames(3)...)
	if err != nil {
		t.Fatal(err)
	}
	f.Add(sec(1), []float64{1, 2, 3})
	col := f.Column(1)
	if !panics(col.Name, func() { col.Add(sec(2), 4) }) {
		t.Fatal("Add on a frame column did not panic naming the series")
	}
	if !panics(f.Column(0).Name, func() { f.Add(sec(2), []float64{1}) }) {
		t.Fatal("a short row did not panic")
	}
	if !panics(f.Column(0).Name, func() { f.Add(sec(0), []float64{1, 2, 3}) }) {
		t.Fatal("an out-of-order row did not panic")
	}
	if col.Len() != 1 || col.Total().Count != 1 {
		t.Errorf("refused appends changed the frame: %d retained of %d", col.Len(), col.Total().Count)
	}
}

// histogramSection encodes a metrics section holding one histogram with
// the given fields.
func histogramSection(t *testing.T, min, max, ratio float64, counts []uint64, total uint64) []byte {
	return saved(t, func(w *ckpt.Writer) {
		w.Begin("metrics")
		w.Int(0)
		w.Int(1)
		w.Str("h")
		w.F64(min)
		w.F64(max)
		w.F64(ratio)
		w.Int(len(counts))
		for _, c := range counts {
			w.U64(c)
		}
		w.U64(total)
		w.F64(1)
		w.F64(1)
		w.F64(1)
		w.Int(0)
	})
}

// TestCkptLoadRejectsBadHistogram: a decoded histogram whose parameters
// or counts NewHistogram could not have produced is refused with an
// error, instead of panicking the next Observe.
func TestCkptLoadRejectsBadHistogram(t *testing.T) {
	good := NewHistogram(1e-4, 1e3, 10)
	n := len(good.counts)
	counts := func(k int) []uint64 {
		c := make([]uint64, k)
		c[0] = 3
		return c
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name            string
		min, max, ratio float64
		counts          []uint64
		total           uint64
		want            string
	}{
		{"no buckets", good.min, good.max, good.ratio, nil, 0, "buckets"},
		{"one bucket short", good.min, good.max, good.ratio, counts(n - 1), 3, "buckets"},
		{"one bucket over", good.min, good.max, good.ratio, counts(n + 1), 3, "buckets"},
		{"zero min", 0, good.max, good.ratio, counts(n), 3, "range"},
		{"negative min", -1, good.max, good.ratio, counts(n), 3, "range"},
		{"max below min", good.max, good.min, good.ratio, counts(n), 3, "range"},
		{"ratio below 1", good.min, good.max, 0.5, counts(n), 3, "ratio"},
		{"ratio 1", good.min, good.max, 1, counts(n), 3, "ratio"},
		{"infinite max", good.min, inf, good.ratio, counts(n), 3, "non-finite"},
		{"NaN min", nan, good.max, good.ratio, counts(n), 3, "non-finite"},
		{"NaN ratio", good.min, good.max, nan, counts(n), 3, "non-finite"},
		{"total off", good.min, good.max, good.ratio, counts(n), 4, "total"},
		{"counts overflow", good.min, good.max, good.ratio, append([]uint64{math.MaxUint64, 2}, make([]uint64, n-2)...), 1, "overflow"},
	} {
		blob := histogramSection(t, c.min, c.max, c.ratio, c.counts, c.total)
		err := NewRegistry().CkptLoad(reader(t, blob))
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), `"h"`) {
			t.Errorf("%s: CkptLoad = %v, want an error naming the histogram and mentioning %q", c.name, err, c.want)
		}
	}

	reg := NewRegistry()
	live := reg.Histogram("h", 1, 10, 1) // restored in place
	blob := histogramSection(t, good.min, good.max, good.ratio, counts(n), 3)
	if err := reg.CkptLoad(reader(t, blob)); err != nil {
		t.Fatalf("a well-formed histogram: %v", err)
	}
	live.Observe(5)
	if live.Count() != 4 || len(live.counts) != n {
		t.Errorf("restored histogram has %d observations in %d buckets, want 4 in %d", live.Count(), len(live.counts), n)
	}
}

// TestHistogramCachedLogBucket: the cached log(ratio) picks the same
// bucket as the formula evaluated afresh, for fresh and restored
// histograms.
func TestHistogramCachedLogBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fresh := NewHistogram(1e-4, 1e3, 10)
	reg := NewRegistry()
	reg.Histogram("h", 1, 1e5, 7).Observe(3)
	restored := NewRegistry()
	if err := restored.CkptLoad(reader(t, saved(t, reg.CkptSave))); err != nil {
		t.Fatal(err)
	}
	back, _ := restored.GetHistogram("h")
	for _, h := range []*Histogram{fresh, back} {
		vals := make([]float64, 0, 20000+3*len(h.counts))
		for range 20000 {
			vals = append(vals, h.min*math.Pow(10, rng.Float64()*12-3))
		}
		// Bucket edges, where the quotient is closest to an integer.
		for k := range len(h.counts) {
			edge := h.min * math.Pow(h.ratio, float64(k))
			vals = append(vals, edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)))
		}
		for _, v := range vals {
			want := 0
			if v > h.min {
				want = min(int(math.Log(v/h.min)/math.Log(h.ratio)), len(h.counts)-1)
			}
			if got := h.bucket(v); got != want {
				t.Fatalf("bucket(%v) = %d, formula %d", v, got, want)
			}
		}
	}
}
