package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"evolve/internal/ckpt"
)

// Checkpoint serialisation for the telemetry registry. Series are saved
// the way the registry holds them: one record per frame, holding the
// column names, the appended count, the newest time, each column's
// whole-run aggregate, the retained time column once and then each
// retained value column. A standalone series is a one-column frame and
// uses the same record. Restore rebuilds every frame as it was saved,
// into a registry that holds no series yet, so no pointer taken before
// the restore can outlive it. Histograms and counters are restored in
// place, since building the world may already have created them. Evicted
// rows and the percentile memo are never saved.

// CkptSave writes every frame in the sorted order of its first column's
// name, then every histogram and counter in sorted name order.
func (r *Registry) CkptSave(w *ckpt.Writer) {
	w.Begin("metrics")
	names := r.SeriesNames()
	nf := 0
	for _, name := range names {
		if r.series[name].col == 0 {
			nf++
		}
	}
	w.Int(nf)
	for _, name := range names {
		if s := r.series[name]; s.col == 0 {
			s.f.ckptSave(w)
		}
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

// ckptSave writes the frame's record.
func (f *Frame) ckptSave(w *ckpt.Writer) {
	w.Int(len(f.cols))
	for _, c := range f.cols {
		w.Str(c.Name)
	}
	w.Int(f.count)
	w.Dur(f.at)
	for _, a := range f.agg {
		w.F64(a.sum)
		w.F64(a.area)
		w.F64(a.cur)
	}
	lo, n, c := f.retained(), len(f.times), cap(f.times)
	w.Int(n - lo)
	for ts := f.times[lo:n]; len(ts) > 0; {
		p := w.Next(8 * min(wordsPerChunk, len(ts)))
		for i := range len(p) / 8 {
			binary.LittleEndian.PutUint64(p[8*i:], uint64(ts[i]))
		}
		ts = ts[len(p)/8:]
	}
	for j := range f.cols {
		for vs := f.vals[j*c+lo : j*c+n]; len(vs) > 0; {
			p := w.Next(8 * min(wordsPerChunk, len(vs)))
			for i := range len(p) / 8 {
				binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(vs[i]))
			}
			vs = vs[len(p)/8:]
		}
	}
}

// wordsPerChunk is how many 8-byte words of a column ckptSave writes
// straight into the writer's buffer at a time.
const wordsPerChunk = ckpt.ChunkSize / 8

// CkptLoad restores the registry from a checkpoint stream. The registry
// must hold no series yet.
func (r *Registry) CkptLoad(cr *ckpt.Reader) error {
	cr.Begin("metrics")
	nf := cr.Count(8)
	if cr.Err() != nil {
		return cr.Err()
	}
	for range nf {
		if err := r.loadFrame(cr); err != nil {
			return err
		}
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

// loadFrame decodes one frame record and registers its columns. Each
// name must be new: a record that repeats a name, or names a series
// another record registered, is refused. A windowed frame gets as much
// headroom again as its window, so appends after the restore compact
// rarely.
func (r *Registry) loadFrame(cr *ckpt.Reader) error {
	nc := cr.Count(8)
	if cr.Err() != nil {
		return cr.Err()
	}
	if nc == 0 {
		return fmt.Errorf("metrics: frame record without columns")
	}
	names := make([]string, nc)
	for j := range names {
		name := cr.Str()
		switch {
		case cr.Err() != nil:
			return cr.Err()
		case slices.Contains(names[:j], name):
			return fmt.Errorf("metrics: series %q is two columns of one frame", name)
		case r.HasSeries(name):
			return fmt.Errorf("metrics: series %q is already registered", name)
		}
		names[j] = name
	}
	f := newFrame(r.history, 0, names...)
	f.count, f.at = cr.Int(), cr.Dur()
	for j := range f.agg {
		f.agg[j] = colAgg{sum: cr.F64(), area: cr.F64(), cur: cr.F64()}
	}
	n := cr.Count(8 * (nc + 1))
	p := cr.Next(8 * n * (nc + 1))
	if cr.Err() != nil {
		return cr.Err()
	}
	c := n
	if r.history > 0 {
		c = 2 * n
	}
	f.times = make([]time.Duration, n, c)
	f.vals = make([]float64, nc*c)
	for i := range f.times {
		f.times[i] = time.Duration(binary.LittleEndian.Uint64(p[8*i:]))
	}
	for j := range nc {
		col, q := f.vals[j*c:j*c+n], p[8*n*(j+1):]
		for i := range col {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(q[8*i:]))
		}
	}
	if err := f.validWindow(); err != nil {
		return err
	}
	r.mu.Lock()
	for j, name := range names {
		r.series[name] = f.cols[j]
	}
	r.mu.Unlock()
	return nil
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

// validWindow checks a decoded frame against its aggregate: rows in
// time order, at least one retained exactly when any were appended, a
// clock at the newest row (0 while every row is at or before 0), and no
// row older than the retention window. Errors name the first column.
func (f *Frame) validWindow() error {
	ts, name := f.times, f.cols[0].Name
	var newest time.Duration
	if len(ts) > 0 {
		newest = max(0, ts[len(ts)-1])
	}
	switch {
	case f.count < len(ts) || (f.count == 0) != (len(ts) == 0):
		return fmt.Errorf("metrics: series %q: %d retained samples of %d appended", name, len(ts), f.count)
	case f.at != newest:
		return fmt.Errorf("metrics: series %q: clock at %v, newest sample at %v", name, f.at, newest)
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
