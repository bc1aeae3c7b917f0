// Package metrics provides the telemetry primitives the EVOLVE control
// loops consume: time series with windowed statistics, streaming
// log-bucketed histograms with percentile queries, counters and a named
// registry for experiment snapshots.
//
// Series live in frames. A Frame is one time column and N value columns
// that are always appended together; a Series is a (frame, column) view.
// A series created on its own is the only column of its frame, so there
// is one storage path. The cluster tick appends an app's 17 series as
// the columns of one frame: one time stamp, one retention window and one
// compaction per app and tick instead of 17.
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

// Frame is a set of series appended together: one time column and N
// value columns with an optional retention window. A frame with history
// 0 keeps every row, which lets the evaluation harness re-render any
// window of a run after the fact. A frame with history h retains the
// rows with time > last − h, where last is the newest row's time, and
// keeps exact whole-run aggregates per column alongside (see
// Series.Total), so memory and checkpoints stay bounded by the window
// while the whole-run figures stay exact.
//
// The retained window is defined by time, never by capacity: older rows
// may linger in the backing arrays until the next compaction, but no
// read ever sees them, so a restored frame — whose arrays have a
// different capacity — reads exactly like the uninterrupted one.
type Frame struct {
	history time.Duration // retention window; 0 keeps everything

	// times ends with the retained window; evicted rows may precede it.
	// vals holds the value columns column-major with stride cap(times):
	// column j is vals[j*cap(times) : j*cap(times)+len(times)]. Add
	// touches only the tails until the arrays are full, then copies the
	// window down over the evicted front and appends in place, so once
	// the capacity covers the window appends stop allocating.
	times []time.Duration
	vals  []float64

	count int           // rows ever appended
	at    time.Duration // time of the newest row, or 0 while every row is at or before 0
	agg   []colAgg      // per-column whole-run aggregates
	cols  []*Series     // the column views, in column order
}

// colAgg is one column's share of its Total; the count and the clock are
// the frame's.
type colAgg struct {
	sum  float64 // values, summed in arrival order
	area float64 // ∫ step value dt over (0, at]
	cur  float64 // step value after the newest row
}

// newFrame returns an empty frame whose columns are new series with the
// given names. A windowed frame that gains one row per every is sized
// for its whole window now (see reservedRows), so its appends never
// allocate; with every 0 it grows by appending.
func newFrame(history, every time.Duration, names ...string) *Frame {
	f := &Frame{history: history, agg: make([]colAgg, len(names)), cols: make([]*Series, len(names))}
	views := make([]Series, len(names))
	for j, name := range names {
		views[j] = Series{Name: name, f: f, col: j}
		f.cols[j] = &views[j]
	}
	if c := reservedRows(history, every); c > 0 {
		f.times, f.vals = make([]time.Duration, 0, c), make([]float64, c*len(names))
	}
	return f
}

// reservedRows is the capacity of a window of history at one row per
// every: the smallest power of two that leaves a quarter of the window
// spare, so the compaction that copies the window down comes at most
// once per quarter window. It is 0 (grow by appending) for a keep-all
// frame, an unknown cadence, or a window of more than 4,096 rows, which
// a short run may never fill.
func reservedRows(history, every time.Duration) int {
	if history <= 0 || every <= 0 || history/every > 1<<12 {
		return 0
	}
	w, c := int(history/every), 1
	for c < w+w/4+1 {
		c *= 2
	}
	return c
}

// Column returns the series view of column j.
func (f *Frame) Column(j int) *Series { return f.cols[j] }

// Add appends one row: vals[j] is column j's value at time at. Rows must
// arrive in non-decreasing time order; out-of-order appends panic since
// they indicate a model bug.
func (f *Frame) Add(at time.Duration, vals []float64) {
	if len(vals) != len(f.cols) {
		panic(fmt.Sprintf("metrics: %d values for the %d columns of the frame of %q", len(vals), len(f.cols), f.cols[0].Name))
	}
	f.add(at, vals)
}

func (f *Frame) add(at time.Duration, vals []float64) {
	n := len(f.times)
	if n > 0 && at < f.times[n-1] {
		panic(fmt.Sprintf("metrics: out-of-order sample on %q: %v after %v", f.cols[0].Name, at, f.times[n-1]))
	}
	// Fold the row into the aggregates. A row at or before 0 only sets
	// the value entering (0, ∞); later ones close the previous step.
	f.count++
	step := at > 0
	dt := float64(at - f.at)
	for j, v := range vals {
		a := &f.agg[j]
		a.sum += v
		if step {
			a.area += a.cur * dt
		}
		a.cur = v
	}
	if step {
		f.at = at
	}
	if n == cap(f.times) {
		n = f.makeRoom(at)
	}
	f.times = f.times[:n+1]
	f.times[n] = at
	c := cap(f.times)
	for j, v := range vals {
		f.vals[j*c+n] = v
	}
}

// makeRoom frees the slot after the last row of a full frame and returns
// the row count. A windowed frame copies the rows a new row at `at`
// leaves in the window down over the evicted ones; a frame that would
// evict nothing grows, by append's policy for the time column.
func (f *Frame) makeRoom(at time.Duration) int {
	n, c := len(f.times), cap(f.times)
	if lo := f.start(at); lo > 0 {
		copy(f.times, f.times[lo:])
		for j := range f.cols {
			copy(f.vals[j*c:], f.vals[j*c+lo:j*c+n])
		}
		f.times = f.times[:n-lo]
		return n - lo
	}
	times := append(f.times, 0)[:n]
	nc := cap(times)
	vals := make([]float64, len(f.cols)*nc)
	for j := range f.cols {
		copy(vals[j*nc:], f.vals[j*c:j*c+n])
	}
	f.times, f.vals = times, vals
	return n
}

// start returns the index of the oldest row inside the retention window
// of a frame whose newest row is at last.
func (f *Frame) start(last time.Duration) int {
	if f.history == 0 {
		return 0
	}
	cut := last - f.history
	return sort.Search(len(f.times), func(i int) bool { return f.times[i] > cut })
}

// retained returns the index of the oldest retained row.
func (f *Frame) retained() int {
	if n := len(f.times); n > 0 {
		return f.start(f.times[n-1])
	}
	return 0
}

// Series is one column of a frame: an append-only time series with the
// frame's retention window and its own exact whole-run aggregate. A
// series created on its own (Registry.Series, NewSeries) is a
// one-column frame and appends with Add; a column of a wider frame is
// appended through its Frame.
type Series struct {
	Name string
	f    *Frame
	col  int

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
// append whatever the retention window. Mean and TimeWeightedMean are
// bit-identical to AllStats().Mean and TimeWeightedMean(0, to) over the
// full history: they add the same terms in the same order.
type Total struct {
	Count int     // samples ever appended
	Sum   float64 // their values, summed in arrival order

	area float64       // ∫ step value dt over (0, at]
	cur  float64       // step value after the newest sample
	at   time.Duration // time of the newest sample, or 0 while every sample is at or before 0
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
func NewSeries(name string) *Series { return NewWindowedSeries(name, 0) }

// NewWindowedSeries returns an empty named series that retains the
// samples of the last history (0 keeps everything).
func NewWindowedSeries(name string, history time.Duration) *Series {
	return newFrame(history, 0, name).cols[0]
}

// Add appends an observation to a standalone series. Samples must arrive
// in non-decreasing time order; out-of-order appends panic since they
// indicate a model bug. A column of a multi-column frame panics too:
// only its frame appends, one row for every column.
func (s *Series) Add(at time.Duration, v float64) {
	if len(s.f.cols) != 1 {
		panic(fmt.Sprintf("metrics: Add on %q, column %d of a %d-column frame (append through the frame)", s.Name, s.col, len(s.f.cols)))
	}
	row := [1]float64{v}
	s.f.add(at, row[:])
}

// column returns the retained window as its time column and this
// series' value column, oldest first. Both are sub-slices of the frame's
// backing arrays; a later append invalidates them.
func (s *Series) column() ([]time.Duration, []float64) {
	f := s.f
	lo, n := f.retained(), len(f.times)
	base := s.col * cap(f.times)
	return f.times[lo:n], f.vals[base+lo : base+n]
}

// Total returns the series' exact whole-run aggregate.
func (s *Series) Total() Total {
	f := s.f
	a := f.agg[s.col]
	return Total{Count: f.count, Sum: a.sum, area: a.area, cur: a.cur, at: f.at}
}

// Len returns the number of retained samples.
func (s *Series) Len() int { return len(s.f.times) - s.f.retained() }

// Samples returns a copy of the retained window, oldest first.
func (s *Series) Samples() []Sample {
	ts, vs := s.column()
	return pairs(ts, vs)
}

// pairs zips a time column and a value column into samples (nil when
// empty).
func pairs(ts []time.Duration, vs []float64) []Sample {
	if len(ts) == 0 {
		return nil
	}
	out := make([]Sample, len(ts))
	for i, at := range ts {
		out[i] = Sample{at, vs[i]}
	}
	return out
}

// checkWindow returns the retained window, and panics when a windowed
// query reaches before its oldest sample on a series that has evicted
// some: the answer would be silently truncated. That is a caller bug —
// queries over evicting series must stay inside their retention window.
func (s *Series) checkWindow(from, to time.Duration) ([]time.Duration, []float64) {
	ts, vs := s.column()
	if s.f.count > len(ts) && from < ts[0] {
		panic(fmt.Sprintf("metrics: window (%v, %v] on %q starts before the oldest retained sample at %v (history %v)",
			from, to, s.Name, ts[0], s.f.history))
	}
	return ts, vs
}

// Last returns the most recent sample, or false when empty.
func (s *Series) Last() (Sample, bool) {
	f := s.f
	n := len(f.times)
	if n == 0 {
		return Sample{}, false
	}
	return Sample{f.times[n-1], f.vals[s.col*cap(f.times)+n-1]}, true
}

// Window returns a copy of the samples with At in (from, to].
func (s *Series) Window(from, to time.Duration) []Sample {
	ts, vs := s.checkWindow(from, to)
	return pairs(window(ts, vs, from, to))
}

// window narrows a retained window to the rows with time in (from, to].
func window(ts []time.Duration, vs []float64, from, to time.Duration) ([]time.Duration, []float64) {
	lo := sort.Search(len(ts), func(i int) bool { return ts[i] > from })
	hi := sort.Search(len(ts), func(i int) bool { return ts[i] > to })
	return ts[lo:hi], vs[lo:hi]
}

// Stats summarises a set of observations.
type Stats struct {
	Count          int
	Mean, Min, Max float64
	Std            float64
}

// WindowStats computes summary statistics over (from, to].
func (s *Series) WindowStats(from, to time.Duration) Stats {
	ts, vs := s.checkWindow(from, to)
	_, vs = window(ts, vs, from, to)
	return computeStats(vs)
}

// AllStats computes summary statistics over the whole series. It panics
// on a series that has evicted samples — the retained window is not the
// whole run; Total carries the exact whole-run mean.
func (s *Series) AllStats() Stats {
	_, vs := s.column()
	if s.f.count > len(vs) {
		panic(fmt.Sprintf("metrics: AllStats on %q, which retains only %v of history (use Total)", s.Name, s.f.history))
	}
	return computeStats(vs)
}

func computeStats(vs []float64) Stats {
	if len(vs) == 0 {
		return Stats{}
	}
	st := Stats{Count: len(vs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range vs {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(len(vs))
	var ss float64
	for _, v := range vs {
		d := v - st.Mean
		ss += d * d
	}
	st.Std = math.Sqrt(ss / float64(len(vs)))
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
	ts, vs := s.checkWindow(from, to)
	s.sortMu.Lock()
	defer s.sortMu.Unlock()
	if s.sorted != nil && s.sortedFrom == from && s.sortedTo == to && s.sortedN == s.f.count {
		return s.sorted
	}
	_, w := window(ts, vs, from, to)
	vals := make([]float64, len(w))
	copy(vals, w)
	sort.Float64s(vals)
	s.sortedFrom, s.sortedTo, s.sortedN, s.sorted = from, to, s.f.count, vals
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
	ts, vs := s.checkWindow(from, to)
	_, vs = window(ts, vs, from, to)
	if len(vs) == 0 {
		return 0
	}
	n := 0
	for _, v := range vs {
		if v > threshold {
			n++
		}
	}
	return float64(n) / float64(len(vs))
}

// TimeWeightedMean integrates the series as a step function over
// (from, to] and divides by the span; appropriate for utilisation/
// allocation series that hold a value until the next sample.
func (s *Series) TimeWeightedMean(from, to time.Duration) float64 {
	ts, vs := s.checkWindow(from, to)
	if to <= from || len(ts) == 0 {
		return 0
	}
	// Step value entering the window: the last sample at or before from.
	idx := sort.Search(len(ts), func(i int) bool { return ts[i] > from })
	var cur float64
	if idx > 0 {
		cur = vs[idx-1]
	}
	t := from
	var area float64
	for i := idx; i < len(ts) && ts[i] <= to; i++ {
		area += cur * float64(ts[i]-t)
		cur, t = vs[i], ts[i]
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
	logRatio float64 // math.Log(ratio), cached for bucket; not serialised
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
	n := int(bucketCount(min, max, ratio))
	return &Histogram{min: min, max: max, ratio: ratio, logRatio: math.Log(ratio), counts: make([]uint64, n), vmin: math.Inf(1), vmax: math.Inf(-1)}
}

// bucketCount is the number of buckets covering [min, max] at ratio. It
// is a float so that a restored histogram's parameters, checked against
// it, cannot overflow the conversion.
func bucketCount(min, max, ratio float64) float64 {
	return math.Ceil(math.Log(max/min)/math.Log(ratio)) + 1
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
	i := int(math.Log(v/h.min) / h.logRatio)
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
	every      time.Duration // the cadence new frames are sized for; 0 grows them by appending
	series     map[string]*Series
	histograms map[string]*Histogram
	counters   map[string]*Counter
}

// NewRegistry returns an empty registry whose series keep every sample.
func NewRegistry() *Registry { return NewWindowedRegistry(0, 0) }

// NewWindowedRegistry returns an empty registry whose series retain the
// samples of the last history (0 keeps everything) plus their exact
// whole-run aggregates. Each new frame is sized for its window at one
// row per every, the cadence most series are sampled at (see newFrame).
func NewWindowedRegistry(history, every time.Duration) *Registry {
	return &Registry{
		history:    history,
		every:      every,
		series:     make(map[string]*Series),
		histograms: make(map[string]*Histogram),
		counters:   make(map[string]*Counter),
	}
}

// Series returns (creating if needed) the named series. A new series is
// the only column of its own frame.
func (r *Registry) Series(name string) *Series {
	r.mu.Lock()
	s, ok := r.series[name]
	if !ok {
		s = newFrame(r.history, r.every, name).cols[0]
		r.series[name] = s
	}
	r.mu.Unlock()
	return s
}

// Lookup returns the named series without creating it. A name that is
// not registered reads as an empty series the registry does not keep, so
// reading a report or a summary never changes what a checkpoint holds.
// Append only through Series or a Frame.
func (r *Registry) Lookup(name string) *Series {
	r.mu.Lock()
	s, ok := r.series[name]
	r.mu.Unlock()
	if !ok {
		return NewWindowedSeries(name, r.history)
	}
	return s
}

// Frame returns the frame whose columns are the named series, in order:
// the frame they already form, or a new one when none of them is
// registered yet, with every column registered under its own name. A
// name registered in any other frame is an error.
func (r *Registry) Frame(names ...string) (*Frame, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		s, ok := r.series[name]
		if !ok {
			continue
		}
		cols := s.f.cols
		for j, c := range cols[:min(len(cols), len(names))] {
			if c.Name != names[j] {
				return nil, fmt.Errorf("metrics: series %q is in a frame whose column %d is %q, not %q", name, j, c.Name, names[j])
			}
		}
		if len(cols) != len(names) {
			return nil, fmt.Errorf("metrics: series %q is in a %d-column frame, not a %d-column one", name, len(cols), len(names))
		}
		return s.f, nil
	}
	f := newFrame(r.history, r.every, names...)
	for j, name := range names {
		r.series[name] = f.cols[j]
	}
	return f, nil
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

// CounterValue returns the named counter's count without creating it (0
// when there is none), so reading a report leaves the registry as it
// was.
func (r *Registry) CounterValue(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c.n
	}
	return 0
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
