package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"evolve/internal/ckpt"
)

// Checkpoint serialisation for the telemetry registry. Instruments are
// restored in place when they already exist on the live registry — the
// cluster holds resolved pointers to hot series and counters, so the
// pointers must keep pointing at the restored state — and lazily
// injected otherwise. A series carries its retained window and its
// whole-run aggregate (Total), never the evicted samples. Every series
// is saved as its own record whatever frame it is a column of, and
// restores as a one-column frame; the owner re-forms wider frames with
// Registry.Frame, which checks that their columns agree. The percentile
// memo is deliberately not serialised; it rebuilds on first query.

// CkptSave writes every series, histogram and counter in sorted name
// order.
func (r *Registry) CkptSave(w *ckpt.Writer) {
	w.Begin("metrics")
	names := r.SeriesNames()
	w.Int(len(names))
	for _, name := range names {
		s := r.series[name]
		w.Str(name)
		t := s.Total()
		w.Int(t.Count)
		w.F64(t.Sum)
		w.F64(t.area)
		w.F64(t.cur)
		w.Dur(t.at)
		ts, vs := s.column()
		w.Int(len(ts))
		saveSamples(w, ts, vs)
	}
	hnames := r.HistogramNames()
	w.Int(len(hnames))
	for _, name := range hnames {
		h := r.histograms[name]
		w.Str(name)
		w.F64(h.min)
		w.F64(h.max)
		w.F64(h.ratio)
		w.Int(len(h.counts))
		for _, c := range h.counts {
			w.U64(c)
		}
		w.U64(h.total)
		w.F64(h.sum)
		w.F64(h.vmin)
		w.F64(h.vmax)
	}
	cnames := r.CounterNames()
	w.Int(len(cnames))
	for _, name := range cnames {
		w.Str(name)
		w.U64(r.counters[name].n)
	}
}

// CkptLoad restores the registry from a checkpoint stream.
func (r *Registry) CkptLoad(cr *ckpt.Reader) error {
	cr.Begin("metrics")
	ns := cr.Count(8)
	if cr.Err() != nil {
		return cr.Err()
	}
	for i := 0; i < ns; i++ {
		name := cr.Str()
		t := Total{Count: cr.Int(), Sum: cr.F64(), area: cr.F64(), cur: cr.F64(), at: cr.Dur()}
		n := cr.Count(sampleBytes)
		if cr.Err() != nil {
			return cr.Err()
		}
		s := r.Series(name)
		// A windowed series gets as much headroom again as its window,
		// so appends after the restore compact rarely.
		capacity := n
		if r.history > 0 {
			capacity = 2 * n
		}
		f := &Frame{
			history: r.history,
			times:   make([]time.Duration, n, capacity),
			vals:    make([]float64, capacity),
			count:   t.Count,
			at:      t.at,
			agg:     []colAgg{{sum: t.Sum, area: t.area, cur: t.cur}},
			cols:    []*Series{s},
		}
		if loadSamples(cr, f.times, f.vals); cr.Err() != nil {
			return cr.Err()
		}
		if err := f.validWindow(name); err != nil {
			return err
		}
		s.f, s.col = f, 0
		s.sorted, s.sortedN = nil, 0
	}
	nh := cr.Count(8)
	if cr.Err() != nil {
		return cr.Err()
	}
	for i := 0; i < nh; i++ {
		name := cr.Str()
		h := &Histogram{min: cr.F64(), max: cr.F64(), ratio: cr.F64()}
		nb := cr.Count(8)
		if cr.Err() != nil {
			return cr.Err()
		}
		h.counts = make([]uint64, nb)
		for j := range h.counts {
			h.counts[j] = cr.U64()
		}
		h.total = cr.U64()
		h.sum = cr.F64()
		h.vmin = cr.F64()
		h.vmax = cr.F64()
		if cr.Err() != nil {
			return cr.Err()
		}
		if err := h.valid(); err != nil {
			return fmt.Errorf("metrics: histogram %q: %w", name, err)
		}
		h.logRatio = math.Log(h.ratio)
		r.mu.Lock()
		if live, ok := r.histograms[name]; ok {
			*live = *h
		} else {
			r.histograms[name] = h
		}
		r.mu.Unlock()
	}
	nc := cr.Count(8)
	if cr.Err() != nil {
		return cr.Err()
	}
	for i := 0; i < nc; i++ {
		name := cr.Str()
		n := cr.U64()
		r.Counter(name).n = n
	}
	return cr.Err()
}

// valid checks a decoded histogram's parameters and counts: finite
// bounds with 0 < min < max, a ratio above 1, exactly the buckets
// NewHistogram's formula gives for them, and a total that is the sum of
// the bucket counts. Anything else would make Observe index out of
// range or Quantile lie.
func (h *Histogram) valid() error {
	for _, v := range []float64{h.min, h.max, h.ratio} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite parameter %v", v)
		}
	}
	switch {
	case h.min <= 0 || h.max <= h.min:
		return fmt.Errorf("range [%v, %v] is not 0 < min < max", h.min, h.max)
	case h.ratio <= 1:
		return fmt.Errorf("bucket ratio %v is not above 1", h.ratio)
	case float64(len(h.counts)) != bucketCount(h.min, h.max, h.ratio):
		return fmt.Errorf("%d buckets, want %v for [%v, %v] at ratio %v", len(h.counts), bucketCount(h.min, h.max, h.ratio), h.min, h.max, h.ratio)
	}
	var sum, carry uint64
	for _, c := range h.counts {
		if sum, carry = bits.Add64(sum, c, 0); carry != 0 {
			return fmt.Errorf("bucket counts overflow")
		}
	}
	if sum != h.total {
		return fmt.Errorf("total %d, bucket counts sum to %d", h.total, sum)
	}
	return nil
}

// validWindow checks a decoded one-column frame against its aggregate:
// rows in time order, at least one retained exactly when any were
// appended, and none older than the retention window.
func (f *Frame) validWindow(name string) error {
	ts := f.times
	switch {
	case f.count < len(ts) || (f.count == 0) != (len(ts) == 0):
		return fmt.Errorf("metrics: series %q: %d retained samples of %d appended", name, len(ts), f.count)
	case len(ts) == 0:
		return nil
	case f.history > 0 && ts[0] <= ts[len(ts)-1]-f.history:
		return fmt.Errorf("metrics: series %q: sample at %v is outside the %v retention window", name, ts[0], f.history)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			return fmt.Errorf("metrics: series %q: sample at %v after %v", name, ts[i], ts[i-1])
		}
	}
	return nil
}

// sampleBytes is one encoded Sample: At then Value, 8 bytes each,
// little-endian.
const sampleBytes = 16

// saveSamples writes a time column and a value column as one contiguous
// run of (At, Value) pairs, a chunk at a time, straight into the
// writer's buffer.
func saveSamples(w *ckpt.Writer, ts []time.Duration, vs []float64) {
	const per = ckpt.ChunkSize / sampleBytes
	for len(ts) > 0 {
		k := min(per, len(ts))
		p := w.Next(k * sampleBytes)
		for i := range k {
			q := p[i*sampleBytes : (i+1)*sampleBytes]
			binary.LittleEndian.PutUint64(q, uint64(ts[i]))
			binary.LittleEndian.PutUint64(q[8:], math.Float64bits(vs[i]))
		}
		ts, vs = ts[k:], vs[k:]
	}
}

// loadSamples fills the time column ts and the first len(ts) values of
// vs from a run written by saveSamples.
func loadSamples(r *ckpt.Reader, ts []time.Duration, vs []float64) {
	p := r.Next(len(ts) * sampleBytes)
	if p == nil {
		return
	}
	for i := range ts {
		q := p[i*sampleBytes : (i+1)*sampleBytes]
		ts[i] = time.Duration(binary.LittleEndian.Uint64(q))
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(q[8:]))
	}
}
