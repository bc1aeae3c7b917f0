package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was written on, a 2-CPU VM, changes speed by
// up to 2× within seconds: a fixed kernel timed between Run slices took
// 10 ms in one stretch and 19 ms in the next. Raw wall times therefore spread far wider than any
// useful regression bound. So every bounded time the benchmark reports
// is normalised: each timed section is scaled by refNominal over the
// duration of a fixed reference kernel timed around it. The kernel is
// the benchmark's own code, identical on every commit, so a faster
// simulator shows as a smaller normalised time while a slower host
// does not.

// refNominal is the reference kernel's nominal duration: a normalised
// second is a wall second at the speed where the kernel takes this
// long.
const refNominal = 2500 * time.Microsecond

// refTable is the kernel's working set, 4 MiB: larger than a core's
// private caches, so the kernel feels cache and memory latency
// contention as the simulator's pointer-heavy state does.
var refTable, refSorted = func() ([]uint64, []uint64) {
	t := unsafe.Slice((*uint64)(unsafe.Pointer(&offHeap(8 << 19)[0])), 1<<19)
	x := uint64(88172645463325252)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t, make([]uint64, 1<<13)
}()

// offHeap maps n bytes outside the Go heap, where they neither show in
// the heap metrics nor raise the collector's heap goal for the world
// being measured.
func offHeap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("e2ebench: mapping the reference kernel's memory: %v", err))
	}
	return b
}

var refSum uint64

// refKernel runs the fixed reference work — a pseudo-random walk over
// refTable and a sort — and returns its wall time. It allocates
// nothing.
func refKernel() time.Duration {
	t0 := time.Now()
	x, acc := uint64(1), uint64(0)
	mask := uint64(len(refTable) - 1)
	for i := 0; i < 150000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := refTable[(x>>40)&mask]
		acc += v ^ v>>7
	}
	copy(refSorted, refTable[acc&0xffff:])
	slices.Sort(refSorted)
	refSum += acc + refSorted[0]
	return time.Since(t0)
}

// refWindow is how many reference samples on each side of a timed
// section its speed estimate takes the median of. The host's speed
// drifts over seconds while single samples jitter (cache state, an
// interrupt), so a median over neighbouring samples tracks the drift
// without adding the jitter.
const refWindow = 5

// section is one timed piece of work: its wall time and the index of
// the reference sample taken right after it.
type section struct {
	wall time.Duration
	at   int
}

// speedTrack interleaves reference samples with timed sections.
type speedTrack struct {
	refs []time.Duration
}

// sample takes n reference samples.
func (s *speedTrack) sample(n int) {
	for ; n > 0; n-- {
		s.refs = append(s.refs, refKernel())
	}
}

// time runs fn, then one reference sample.
func (s *speedTrack) time(fn func() error) (section, error) {
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	s.sample(1)
	return section{wall: wall, at: len(s.refs) - 1}, err
}

// norm returns a section's normalised time: its wall time scaled by
// refNominal over the median of the reference samples within refWindow
// of it.
func (s *speedTrack) norm(sec section) time.Duration {
	lo, hi := max(sec.at-refWindow, 0), min(sec.at+refWindow, len(s.refs))
	rs := make([]float64, 0, hi-lo)
	for _, r := range s.refs[lo:hi] {
		rs = append(rs, float64(r))
	}
	return time.Duration(float64(sec.wall) * float64(refNominal) / median(rs))
}
