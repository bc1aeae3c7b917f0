package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// secs converts float seconds to a duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mb = 1 << 20

// runtimeSample is the Go runtime's view of the process at one instant,
// read from runtime/metrics without stopping the world.
type runtimeSample struct {
	liveHeap   uint64  // heap marked live by the latest GC
	allocBytes uint64  // cumulative heap allocations
	gcCycles   uint64  // completed GC cycles
	gcCPU      float64 // estimated CPU seconds spent in GC
	totalCPU   float64 // estimated CPU seconds available to the process
}

var runtimeNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

var runtimeSamples = func() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	return s
}()

// readRuntime samples the runtime counters. It allocates nothing, so
// it can bracket the work whose allocations it counts.
func readRuntime() runtimeSample {
	s := runtimeSamples
	metrics.Read(s)
	return runtimeSample{
		liveHeap:   s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// gcPauseNs returns the cumulative stop-the-world GC pause time. It
// stops the world itself, so it is read only at the ends of a run.
func gcPauseNs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.PauseTotalNs
}

// sink is an in-memory trace sink: it copies each write into a
// bounded buffer, as a buffered file or pipe writer would, without
// touching the disk. With timed set it also accumulates the wall time
// spent inside Write.
type sink struct {
	buf   []byte
	bytes int64
	timed bool
	ns    int64
}

const sinkFlush = 1 << 20

func (s *sink) Write(p []byte) (int, error) {
	var t0 time.Time
	if s.timed {
		t0 = time.Now()
	}
	if len(s.buf)+len(p) > sinkFlush {
		s.buf = s.buf[:0]
	}
	s.buf = append(s.buf, p...)
	s.bytes += int64(len(p))
	if s.timed {
		s.ns += time.Since(t0).Nanoseconds()
	}
	return len(p), nil
}

// counter counts the bytes written to it and keeps none.
type counter struct{ n int64 }

func (c *counter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
