// Package metrics provides the telemetry primitives the EVOLVE control
// loops consume: time series with windowed statistics, streaming
// log-bucketed histograms with percentile queries, counters and a named
// registry for experiment snapshots.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Sample is one timestamped observation.
type Sample struct {
	At    time.Duration // virtual time of the observation
	Value float64
}

// Series is an append-only time series with an optional retention
// window. A series with history 0 keeps every sample, which lets the
// evaluation harness re-render any window of a run after the fact. A
// series with history h retains the samples with At > last − h, where
// last is the newest sample's time, and keeps exact whole-run
// aggregates alongside (see Total), so memory and checkpoints stay
// bounded by the window while the whole-run figures stay exact.
//
// The retained window is defined by time, never by capacity: older
// samples may linger in the backing array until the next compaction,
// but no read ever sees them, so a restored series — whose array has a
// different capacity — reads exactly like the uninterrupted one.
type Series struct {
	Name    string
	history time.Duration // retention window; 0 keeps everything

	// samples ends with the retained window; evicted samples may
	// precede it. Add touches only the tail until the array is full,
	// then copies the window down over the evicted front and appends in
	// place, so once the capacity covers the window appends stop
	// allocating.
	samples []Sample

	total Total

	// Percentile queries sort a window of values; summaries ask for
	// several percentiles (and re-ask across tables sharing a cached
	// run), so the sorted window is memoised per (from, to, appended
	// count) — the count, not the length, because after a compaction the
	// length can repeat while the contents differ. The mutex only guards
	// the memo: appends stay single-threaded per the owning simulation,
	// but finished runs may be read concurrently by parallel table
	// builders.
	sortMu     sync.Mutex
	sortedFrom time.Duration
	sortedTo   time.Duration
	sortedN    int
	sorted     []float64
}

// Total is a series' exact whole-run aggregate, kept up to date on every
// Add whatever the retention window. Mean and TimeWeightedMean are
// bit-identical to AllStats().Mean and TimeWeightedMean(0, to) over the
// full history: they add the same terms in the same order.
type Total struct {
	Count int     // samples ever appended
	Sum   float64 // their values, summed in arrival order

	area float64       // ∫ step value dt over (0, at]
	cur  float64       // step value after the newest sample
	at   time.Duration // time of the newest sample, or 0 while every sample is at or before 0
}

// add folds one sample in. A sample at or before 0 only sets the value
// entering (0, ∞); later ones close the previous step.
func (t *Total) add(at time.Duration, v float64) {
	t.Count++
	t.Sum += v
	if at > 0 {
		t.area += t.cur * float64(at-t.at)
		t.at = at
	}
	t.cur = v
}

// Mean is the arithmetic mean of every sample ever appended (0 when
// none).
func (t Total) Mean() float64 {
	if t.Count == 0 {
		return 0
	}
	return t.Sum / float64(t.Count)
}

// TimeWeightedMean is the step-function mean over (0, to]. to must not
// precede the newest sample: the running integral cannot be rewound.
func (t Total) TimeWeightedMean(to time.Duration) float64 {
	if to <= 0 || t.Count == 0 {
		return 0
	}
	if to < t.at {
		panic(fmt.Sprintf("metrics: whole-run mean to %v precedes the newest sample at %v", to, t.at))
	}
	return (t.area + t.cur*float64(to-t.at)) / float64(to)
}

// NewSeries returns an empty named series that keeps every sample.
func NewSeries(name string) *Series { return &Series{Name: name} }

// NewWindowedSeries returns an empty named series that retains the
// samples of the last history (0 keeps everything).
func NewWindowedSeries(name string, history time.Duration) *Series {
	return &Series{Name: name, history: history}
}

// Add appends an observation. Samples must arrive in non-decreasing time
// order; out-of-order appends panic since they indicate a model bug.
func (s *Series) Add(at time.Duration, v float64) {
	n := len(s.samples)
	if n > 0 && at < s.samples[n-1].At {
		panic(fmt.Sprintf("metrics: out-of-order sample on %q: %v after %v", s.Name, at, s.samples[n-1].At))
	}
	s.total.add(at, v)
	if s.history > 0 && n == cap(s.samples) {
		// Full: copy the samples the new one leaves in the window down
		// over the evicted ones, so the append reuses the array.
		lo := s.start(at)
		s.samples = s.samples[:copy(s.samples, s.samples[lo:])]
	}
	s.samples = append(s.samples, Sample{at, v})
}

// start returns the index of the oldest sample inside the retention
// window of a series whose newest sample is at last.
func (s *Series) start(last time.Duration) int {
	if s.history == 0 {
		return 0
	}
	cut := last - s.history
	return sort.Search(len(s.samples), func(i int) bool { return s.samples[i].At > cut })
}

// Total returns the series' exact whole-run aggregate.
func (s *Series) Total() Total { return s.total }

// Len returns the number of retained samples.
func (s *Series) Len() int { return len(s.Samples()) }

// Samples returns the retained window oldest-first. It is a sub-slice
// of the series' backing array — callers must not modify it, and a
// later Add invalidates it.
func (s *Series) Samples() []Sample {
	n := len(s.samples)
	if n == 0 {
		return nil
	}
	return s.samples[s.start(s.samples[n-1].At):]
}

// checkWindow returns the retained window, and panics when a windowed
// query reaches before its oldest sample on a series that has evicted
// some: the answer would be silently truncated. That is a caller bug —
// queries over evicting series must stay inside their retention window.
func (s *Series) checkWindow(from, to time.Duration) []Sample {
	w := s.Samples()
	if s.total.Count > len(w) && from < w[0].At {
		panic(fmt.Sprintf("metrics: window (%v, %v] on %q starts before the oldest retained sample at %v (history %v)",
			from, to, s.Name, w[0].At, s.history))
	}
	return w
}

// Last returns the most recent sample, or false when empty.
func (s *Series) Last() (Sample, bool) {
	if len(s.samples) == 0 {
		return Sample{}, false
	}
	return s.samples[len(s.samples)-1], true
}

// Window returns the samples with At in (from, to]. The result is a
// sub-slice of the series' backing array — no copy — so callers must not
// modify it, and a later Add invalidates it.
func (s *Series) Window(from, to time.Duration) []Sample {
	return window(s.checkWindow(from, to), from, to)
}

func window(w []Sample, from, to time.Duration) []Sample {
	lo := sort.Search(len(w), func(i int) bool { return w[i].At > from })
	hi := sort.Search(len(w), func(i int) bool { return w[i].At > to })
	return w[lo:hi]
}

// Stats summarises a set of observations.
type Stats struct {
	Count          int
	Mean, Min, Max float64
	Std            float64
}

// WindowStats computes summary statistics over (from, to].
func (s *Series) WindowStats(from, to time.Duration) Stats {
	return computeStats(s.Window(from, to))
}

// AllStats computes summary statistics over the whole series. It panics
// on a series that has evicted samples — the retained window is not the
// whole run; Total carries the exact whole-run mean.
func (s *Series) AllStats() Stats {
	w := s.Samples()
	if s.total.Count > len(w) {
		panic(fmt.Sprintf("metrics: AllStats on %q, which retains only %v of history (use Total)", s.Name, s.history))
	}
	return computeStats(w)
}

func computeStats(w []Sample) Stats {
	if len(w) == 0 {
		return Stats{}
	}
	st := Stats{Count: len(w), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range w {
		sum += x.Value
		if x.Value < st.Min {
			st.Min = x.Value
		}
		if x.Value > st.Max {
			st.Max = x.Value
		}
	}
	st.Mean = sum / float64(len(w))
	var ss float64
	for _, x := range w {
		d := x.Value - st.Mean
		ss += d * d
	}
	st.Std = math.Sqrt(ss / float64(len(w)))
	return st
}

// Percentile returns the p-th percentile (0..100) of the window (from, to]
// by exact sort; returns 0 on an empty window. Repeated queries against
// the same window reuse one sorted copy instead of re-sorting per call.
func (s *Series) Percentile(from, to time.Duration, p float64) float64 {
	vals := s.sortedWindow(from, to)
	return percentileSorted(vals, p)
}

// Percentiles evaluates several percentile points against one sorted
// window; the window is sorted at most once.
func (s *Series) Percentiles(from, to time.Duration, ps ...float64) []float64 {
	vals := s.sortedWindow(from, to)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = percentileSorted(vals, p)
	}
	return out
}

// sortedWindow returns the sorted values of (from, to], memoising the
// last window. Appends invalidate the memo via the appended count.
func (s *Series) sortedWindow(from, to time.Duration) []float64 {
	all := s.checkWindow(from, to)
	s.sortMu.Lock()
	defer s.sortMu.Unlock()
	if s.sorted != nil && s.sortedFrom == from && s.sortedTo == to && s.sortedN == s.total.Count {
		return s.sorted
	}
	w := window(all, from, to)
	vals := make([]float64, len(w))
	for i, x := range w {
		vals[i] = x.Value
	}
	sort.Float64s(vals)
	s.sortedFrom, s.sortedTo, s.sortedN, s.sorted = from, to, s.total.Count, vals
	return vals
}

func percentileSorted(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	if p <= 0 {
		return vals[0]
	}
	if p >= 100 {
		return vals[len(vals)-1]
	}
	rank := p / 100 * float64(len(vals)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

// FractionAbove returns the fraction of samples in (from, to] whose value
// exceeds threshold. Used for PLO-violation accounting.
func (s *Series) FractionAbove(from, to time.Duration, threshold float64) float64 {
	w := s.Window(from, to)
	if len(w) == 0 {
		return 0
	}
	n := 0
	for _, x := range w {
		if x.Value > threshold {
			n++
		}
	}
	return float64(n) / float64(len(w))
}

// TimeWeightedMean integrates the series as a step function over
// (from, to] and divides by the span; appropriate for utilisation/
// allocation series that hold a value until the next sample.
func (s *Series) TimeWeightedMean(from, to time.Duration) float64 {
	w := s.checkWindow(from, to)
	if to <= from || len(w) == 0 {
		return 0
	}
	// Step value entering the window: the last sample at or before from.
	idx := sort.Search(len(w), func(i int) bool { return w[i].At > from })
	var cur float64
	if idx > 0 {
		cur = w[idx-1].Value
	}
	t := from
	var area float64
	for _, x := range w[idx:] {
		if x.At > to {
			break
		}
		area += cur * float64(x.At-t)
		cur, t = x.Value, x.At
	}
	area += cur * float64(to-t)
	return area / float64(to-from)
}

// Histogram is a streaming log-bucketed histogram for positive values
// (latencies, sizes). Buckets grow geometrically from min to max with the
// given resolution; values outside the range clamp to the end buckets.
type Histogram struct {
	min, max float64
	ratio    float64 // bucket width multiplier
	counts   []uint64
	total    uint64
	sum      float64
	vmin     float64
	vmax     float64
}

// NewHistogram returns a histogram covering [min, max] with bucketsPerDecade
// buckets per factor-of-10. min must be > 0 and max > min.
func NewHistogram(min, max float64, bucketsPerDecade int) *Histogram {
	if min <= 0 || max <= min || bucketsPerDecade <= 0 {
		panic("metrics: invalid histogram parameters")
	}
	ratio := math.Pow(10, 1/float64(bucketsPerDecade))
	n := int(math.Ceil(math.Log(max/min)/math.Log(ratio))) + 1
	return &Histogram{min: min, max: max, ratio: ratio, counts: make([]uint64, n), vmin: math.Inf(1), vmax: math.Inf(-1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.total++
	h.sum += v
	if v < h.vmin {
		h.vmin = v
	}
	if v > h.vmax {
		h.vmax = v
	}
	h.counts[h.bucket(v)]++
}

func (h *Histogram) bucket(v float64) int {
	if v <= h.min {
		return 0
	}
	i := int(math.Log(v/h.min) / math.Log(h.ratio))
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Buckets calls fn for every bucket in ascending order with the bucket's
// inclusive upper edge and the cumulative count up to it — the shape a
// Prometheus histogram exposition needs. The final edge does not cover
// +Inf; callers append that bucket from Count themselves.
func (h *Histogram) Buckets(fn func(le float64, cumulative uint64)) {
	var cum uint64
	for i, c := range h.counts {
		cum += c
		fn(h.min*math.Pow(h.ratio, float64(i+1)), cum)
	}
}

// Mean returns the exact mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min and Max return the exact observed extrema (0 when empty).
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.vmin
}

// Max returns the exact maximum observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.vmax
}

// Quantile returns the q-th quantile (0..1) with log-bucket resolution.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			// Upper edge of bucket i, clamped to observed max.
			edge := h.min * math.Pow(h.ratio, float64(i+1))
			return math.Min(edge, h.vmax)
		}
	}
	return h.vmax
}

// Reset clears all observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum = 0, 0
	h.vmin, h.vmax = math.Inf(1), math.Inf(-1)
}

// Counter is a monotonically increasing event count.
type Counter struct {
	Name string
	n    uint64
}

// Inc adds one. Add adds delta. Value reads the count.
func (c *Counter) Inc()             { c.n++ }
func (c *Counter) Add(delta uint64) { c.n += delta }
func (c *Counter) Value() uint64    { return c.n }

// Registry names and owns a set of series, histograms and counters for one
// simulation run. Name resolution (Series/Histogram/Counter lookup and
// lazy creation) is guarded by a mutex because the sharded kernel's
// parallel tick phases may resolve instruments concurrently; writes to
// a resolved instrument remain single-writer per instrument, which is
// the discipline the tick phases follow.
type Registry struct {
	mu         sync.Mutex
	history    time.Duration // every series' retention window; 0 keeps everything
	series     map[string]*Series
	histograms map[string]*Histogram
	counters   map[string]*Counter
}

// NewRegistry returns an empty registry whose series keep every sample.
func NewRegistry() *Registry { return NewWindowedRegistry(0) }

// NewWindowedRegistry returns an empty registry whose series retain the
// samples of the last history (0 keeps everything) plus their exact
// whole-run aggregates.
func NewWindowedRegistry(history time.Duration) *Registry {
	return &Registry{
		history:    history,
		series:     make(map[string]*Series),
		histograms: make(map[string]*Histogram),
		counters:   make(map[string]*Counter),
	}
}

// Series returns (creating if needed) the named series.
func (r *Registry) Series(name string) *Series {
	r.mu.Lock()
	s, ok := r.series[name]
	if !ok {
		s = NewWindowedSeries(name, r.history)
		r.series[name] = s
	}
	r.mu.Unlock()
	return s
}

// Histogram returns (creating if needed) the named histogram. The
// parameters are only applied on first creation.
func (r *Registry) Histogram(name string, min, max float64, bucketsPerDecade int) *Histogram {
	r.mu.Lock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(min, max, bucketsPerDecade)
		r.histograms[name] = h
	}
	r.mu.Unlock()
	return h
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{Name: name}
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// SeriesNames returns the sorted names of all series.
func (r *Registry) SeriesNames() []string {
	names := make([]string, 0, len(r.series))
	for n := range r.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CounterNames returns the sorted names of all counters.
func (r *Registry) CounterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the sorted names of all histograms.
func (r *Registry) HistogramNames() []string {
	names := make([]string, 0, len(r.histograms))
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GetHistogram returns the named histogram without creating it.
func (r *Registry) GetHistogram(name string) (*Histogram, bool) {
	h, ok := r.histograms[name]
	return h, ok
}

// HasSeries reports whether the named series exists without creating it.
func (r *Registry) HasSeries(name string) bool {
	_, ok := r.series[name]
	return ok
}
