package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"evolve/internal/ckpt"
)

// Checkpoint serialisation for the telemetry registry. Instruments are
// restored in place when they already exist on the live registry — the
// cluster holds resolved pointers to hot series and counters, so the
// pointers must keep pointing at the restored state — and lazily
// injected otherwise. A series carries its retained window and its
// whole-run aggregate (Total), never the evicted samples. The
// percentile memo is deliberately not serialised; it rebuilds on first
// query.

// CkptSave writes every series, histogram and counter in sorted name
// order.
func (r *Registry) CkptSave(w *ckpt.Writer) {
	w.Begin("metrics")
	names := r.SeriesNames()
	w.Int(len(names))
	for _, name := range names {
		s := r.series[name]
		w.Str(name)
		t := s.total
		w.Int(t.Count)
		w.F64(t.Sum)
		w.F64(t.area)
		w.F64(t.cur)
		w.Dur(t.at)
		win := s.Samples()
		w.Int(len(win))
		saveSamples(w, win)
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
		if s.history > 0 {
			capacity = 2 * n
		}
		if s.samples = loadSamples(cr, make([]Sample, n, capacity)); cr.Err() != nil {
			return cr.Err()
		}
		if err := s.validWindow(t); err != nil {
			return err
		}
		s.total = t
		s.sorted, s.sortedN = nil, 0
	}
	nh := cr.Count(8)
	if cr.Err() != nil {
		return cr.Err()
	}
	for i := 0; i < nh; i++ {
		name := cr.Str()
		min, max, ratio := cr.F64(), cr.F64(), cr.F64()
		nb := cr.Count(8)
		if cr.Err() != nil {
			return cr.Err()
		}
		counts := make([]uint64, nb)
		for j := range counts {
			counts[j] = cr.U64()
		}
		h, ok := r.histograms[name]
		if !ok {
			h = &Histogram{}
			r.mu.Lock()
			r.histograms[name] = h
			r.mu.Unlock()
		}
		h.min, h.max, h.ratio, h.counts = min, max, ratio, counts
		h.total = cr.U64()
		h.sum = cr.F64()
		h.vmin = cr.F64()
		h.vmax = cr.F64()
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

// validWindow checks a decoded window against its aggregate: samples in
// time order, at least one retained exactly when any were appended, and
// none older than the retention window.
func (s *Series) validWindow(t Total) error {
	w := s.samples
	switch {
	case t.Count < len(w) || (t.Count == 0) != (len(w) == 0):
		return fmt.Errorf("metrics: series %q: %d retained samples of %d appended", s.Name, len(w), t.Count)
	case len(w) == 0:
		return nil
	case s.history > 0 && w[0].At <= w[len(w)-1].At-s.history:
		return fmt.Errorf("metrics: series %q: sample at %v is outside the %v retention window", s.Name, w[0].At, s.history)
	}
	for i := 1; i < len(w); i++ {
		if w[i].At < w[i-1].At {
			return fmt.Errorf("metrics: series %q: sample at %v after %v", s.Name, w[i].At, w[i-1].At)
		}
	}
	return nil
}

// sampleBytes is one encoded Sample: At then Value, 8 bytes each,
// little-endian.
const sampleBytes = 16

// saveSamples writes samples as one contiguous run of (At, Value)
// pairs, a chunk at a time, straight into the writer's buffer.
func saveSamples(w *ckpt.Writer, samples []Sample) {
	const per = ckpt.ChunkSize / sampleBytes
	for len(samples) > 0 {
		run := samples[:min(per, len(samples))]
		samples = samples[len(run):]
		p := w.Next(len(run) * sampleBytes)
		for i, sm := range run {
			q := p[i*sampleBytes : (i+1)*sampleBytes]
			binary.LittleEndian.PutUint64(q, uint64(sm.At))
			binary.LittleEndian.PutUint64(q[8:], math.Float64bits(sm.Value))
		}
	}
}

// loadSamples fills dst from a run written by saveSamples.
func loadSamples(r *ckpt.Reader, dst []Sample) []Sample {
	p := r.Next(len(dst) * sampleBytes)
	if p == nil {
		return nil
	}
	for i := range dst {
		q := p[i*sampleBytes : (i+1)*sampleBytes]
		dst[i] = Sample{
			At:    time.Duration(binary.LittleEndian.Uint64(q)),
			Value: math.Float64frombits(binary.LittleEndian.Uint64(q[8:])),
		}
	}
	return dst
}
