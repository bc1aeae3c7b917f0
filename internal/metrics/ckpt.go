package metrics

import (
	"encoding/binary"
	"math"
	"time"

	"evolve/internal/ckpt"
)

// Checkpoint serialisation for the telemetry registry. Instruments are
// restored in place when they already exist on the live registry — the
// cluster holds resolved pointers to hot series and counters, so the
// pointers must keep pointing at the restored state — and lazily
// injected otherwise. The percentile memo is deliberately not
// serialised; it rebuilds on first query.

// CkptSave writes every series, histogram and counter in sorted name
// order.
func (r *Registry) CkptSave(w *ckpt.Writer) {
	w.Begin("metrics")
	names := r.SeriesNames()
	w.Int(len(names))
	for _, name := range names {
		s := r.series[name]
		w.Str(name)
		w.Int(len(s.samples))
		saveSamples(w, s.samples)
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
		n := cr.Count(sampleBytes)
		if cr.Err() != nil {
			return cr.Err()
		}
		s := r.Series(name)
		s.samples = loadSamples(cr, make([]Sample, n))
		s.sorted, s.sortedLen = nil, 0
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
