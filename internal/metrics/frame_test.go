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

// TestFrameCheckpointRoundTrip: a checkpoint saves each frame as one
// record and restores it as the same frame, which Registry.Frame then
// returns. After the trip every column of a windowed frame, and a
// standalone series beside it, answers every query bit for bit like a
// keep-all twin fed the same samples, and the restored registry saves
// the bytes the original does.
func TestFrameCheckpointRoundTrip(t *testing.T) {
	const history = 30 * time.Second
	rng := rand.New(rand.NewSource(5))
	names := colNames(17)
	stream := randomStream(rng, 600, history)
	orig := NewWindowedRegistry(history)
	f, err := orig.Frame(names...)
	if err != nil {
		t.Fatal(err)
	}
	twins := make([]*Series, len(names)+1)
	for j := range twins {
		twins[j] = NewSeries("twin")
	}
	row := make([]float64, len(names))
	add := func(reg *Registry, f *Frame, sm Sample) {
		for j := range row {
			row[j] = sm.Value + float64(j)
		}
		f.Add(sm.At, row)
		reg.Series("app/alone").Add(sm.At, -sm.Value)
	}
	for _, sm := range stream[:300] {
		add(orig, f, sm)
		for j := range row {
			twins[j].Add(sm.At, sm.Value+float64(j))
		}
		twins[len(names)].Add(sm.At, -sm.Value)
	}
	blob := saved(t, orig.CkptSave)

	restored := NewWindowedRegistry(history)
	if err := restored.CkptLoad(reader(t, blob)); err != nil {
		t.Fatal(err)
	}
	g, err := restored.Frame(names...)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.SeriesNames(); !slices.Equal(got, orig.SeriesNames()) {
		t.Fatalf("restored series %v, want %v", got, orig.SeriesNames())
	}
	if c := g.Column(0); c.Total().Count == c.Len() {
		t.Fatal("nothing evicted before the checkpoint")
	}
	if !bytes.Equal(saved(t, restored.CkptSave), blob) {
		t.Error("the restored registry saves other bytes than the original")
	}
	before := append(slices.Clone(f.cols), orig.Series("app/alone"))
	after := append(slices.Clone(g.cols), restored.Series("app/alone"))
	for i, sm := range stream[300:] {
		add(orig, f, sm)
		add(restored, g, sm)
		for j := range row {
			twins[j].Add(sm.At, sm.Value+float64(j))
		}
		twins[len(names)].Add(sm.At, -sm.Value)
		if i%25 != 0 {
			continue
		}
		for j, b := range after {
			if a := before[j]; !slices.Equal(a.Samples(), b.Samples()) || a.Total() != b.Total() {
				t.Fatalf("column %d of the restored registry diverged %d rows after the checkpoint", j, i+1)
			}
			checkAgainstTwin(t, rng, b, twins[j])
		}
	}
}

// frameRecord is one frame record for frameSection: its column names,
// its time column, and how far its clock lies past the newest row.
// Every value is 1.
type frameRecord struct {
	names []string
	times []time.Duration
	skew  time.Duration
}

// frameSection encodes a metrics section holding the given frame
// records and no histograms or counters.
func frameSection(t *testing.T, recs ...frameRecord) []byte {
	return saved(t, func(w *ckpt.Writer) {
		w.Begin("metrics")
		w.Int(len(recs))
		for _, rec := range recs {
			w.Int(len(rec.names))
			for _, name := range rec.names {
				w.Str(name)
			}
			w.Int(len(rec.times))
			w.Dur(rec.times[len(rec.times)-1] + rec.skew)
			for range rec.names {
				w.F64(float64(len(rec.times)))
				w.F64(0)
				w.F64(1)
			}
			w.Int(len(rec.times))
			for _, at := range rec.times {
				w.Dur(at)
			}
			for range len(rec.names) * len(rec.times) {
				w.F64(1)
			}
		}
		w.Int(0)
		w.Int(0)
	})
}

// TestCkptLoadRefusesBadFrameRecord: a frame record the registry could
// not have saved — a name twice in one frame, a name in two records, a
// time column out of order or outside the retention window, or a frame
// clock past its newest row — is refused with an error naming the
// series, and a restored frame whose columns are not the ones asked for
// is refused by Registry.Frame. A column of one frame cannot join
// another either.
func TestCkptLoadRefusesBadFrameRecord(t *testing.T) {
	names := colNames(3)
	rows := []time.Duration{sec(1), sec(2), sec(3)}
	for _, c := range []struct {
		name, want string
		recs       []frameRecord
	}{
		{"duplicate column", "app/c01", []frameRecord{{[]string{names[0], names[1], names[1]}, rows, 0}}},
		{"name in two records", "app/c02", []frameRecord{{names, rows, 0}, {names[2:], rows, 0}}},
		{"time column out of order", "app/c00", []frameRecord{{names, []time.Duration{sec(1), sec(3), sec(2)}, 0}}},
		{"row outside the window", "app/c00", []frameRecord{{names, []time.Duration{sec(1), sec(2), sec(20)}, 0}}},
		{"clock past the newest row", "app/c00", []frameRecord{{names, rows, time.Hour}}},
	} {
		err := NewWindowedRegistry(10 * time.Second).CkptLoad(reader(t, frameSection(t, c.recs...)))
		if err == nil || !strings.Contains(err.Error(), `"`+c.want+`"`) {
			t.Errorf("%s: CkptLoad = %v, want an error naming %q", c.name, err, c.want)
		}
	}
	if err := NewRegistry().CkptLoad(reader(t, frameSection(t, frameRecord{nil, rows, 0}))); err == nil {
		t.Error("a frame record without columns restored")
	}

	// A renamed column restores, but the frame is not the one asked for.
	renamed := append(slices.Clone(names[:2]), "app/cXX")
	reg := NewRegistry()
	if err := reg.CkptLoad(reader(t, frameSection(t, frameRecord{renamed, rows, 0}))); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Frame(names...); err == nil || !strings.Contains(err.Error(), `"app/cXX"`) {
		t.Errorf("renamed column: Frame = %v, want an error naming %q", err, "app/cXX")
	}
	if _, err := reg.Frame(names[:2]...); err == nil || !strings.Contains(err.Error(), "3-column") {
		t.Errorf("a frame of two of its columns = %v, want a column-count error", err)
	}

	// A column of one frame cannot join another.
	reg = NewRegistry()
	if one, err := reg.Frame("app/alone"); err != nil || one != reg.Series("app/alone").f {
		t.Fatalf("a one-column frame = %p, %v; want the series' own frame", one, err)
	}
	f, err := reg.Frame(names...)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := reg.Frame(names...); err != nil || again != f {
		t.Fatalf("resolving the frame again = %p, %v; want the same frame", again, err)
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
