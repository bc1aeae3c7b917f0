package sim

import (
	"fmt"
	"testing"
	"time"
)

// Regression: cancelling a periodic process must kill the pending
// re-arm event in the heap, not just flag future firings off. Before
// the fix, Pending reported phantom work after cancel, and a later Run
// counted a step for the dead re-arm.
func TestEveryCancelKillsPendingEvent(t *testing.T) {
	e := NewEngine(1)
	n := 0
	cancel := e.Every(time.Second, func() { n++ })
	e.Run(3 * time.Second)
	if n != 3 {
		t.Fatalf("fired %d times, want 3", n)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d before cancel, want 1", e.Pending())
	}
	cancel()
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after cancel, want 0 (phantom re-arm left live)", e.Pending())
	}
	if !t.Failed() {
		cancel() // double-cancel must be a safe no-op
		if e.Pending() != 0 {
			t.Errorf("Pending = %d after double cancel, want 0", e.Pending())
		}
	}
	steps := e.Steps()
	if ran := e.Run(10 * time.Second); ran != 0 || e.Steps() != steps {
		t.Errorf("Run after cancel executed %d events (steps %d -> %d), want 0", ran, steps, e.Steps())
	}
	if n != 3 {
		t.Errorf("fired %d times after cancel, want 3", n)
	}
}

// Cancelling from inside the periodic callback itself must not corrupt
// the live count: step has already retired the firing event.
func TestEveryCancelFromInsideCallback(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var cancel Canceler
	cancel = e.Every(time.Second, func() {
		n++
		if n == 2 {
			cancel()
		}
	})
	e.Run(10 * time.Second)
	if n != 2 {
		t.Fatalf("fired %d times, want 2", n)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", e.Pending())
	}
}

// A cancelled event stays in the heap until popped, but neither Pending
// nor Run counts it: Run skips the dead head and executes only the live
// event behind it.
func TestPendingCountsLiveEventsOnly(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	c1 := e.At(time.Second, func() { got = append(got, e.Now()) })
	e.At(2*time.Second, func() { got = append(got, e.Now()) })
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	c1()
	if e.Pending() != 1 {
		t.Errorf("Pending = %d after cancel, want 1", e.Pending())
	}
	c1() // idempotent
	if e.Pending() != 1 {
		t.Errorf("Pending = %d after double cancel, want 1", e.Pending())
	}
	if ran := e.Run(time.Second); ran != 0 || e.Pending() != 1 {
		t.Errorf("Run(1s) executed %d with Pending %d; want 0 and 1 (dead head skipped)", ran, e.Pending())
	}
	if ran := e.Run(2 * time.Second); ran != 1 || e.Pending() != 0 || e.Steps() != 1 {
		t.Errorf("Run(2s) executed %d with Pending %d, Steps %d; want 1, 0, 1", ran, e.Pending(), e.Steps())
	}
	if len(got) != 1 || got[0] != 2*time.Second {
		t.Errorf("fired at %v, want [2s]", got)
	}
}

// The free list must drain to a high-water mark after a burst instead
// of pinning the burst's peak heap forever.
func TestFreeListCappedAfterBurst(t *testing.T) {
	e := NewEngine(1)
	const burst = 100000
	for i := 0; i < burst; i++ {
		e.At(time.Duration(i)*time.Millisecond, func() {})
	}
	e.RunAll()
	if got := len(e.free); got > freeSlack {
		t.Errorf("free list holds %d structs after burst, want <= %d", got, freeSlack)
	}
	if got := cap(e.free); got > 4*freeSlack {
		t.Errorf("free list capacity %d after burst, want <= %d", got, 4*freeSlack)
	}
	// Steady state afterwards still recycles: one periodic process must
	// not grow the heap or the free list.
	e.Every(time.Second, func() {})
	e.Run(e.Now() + 1000*time.Second)
	if got := len(e.free); got > freeSlack {
		t.Errorf("free list grew to %d in steady state", got)
	}
}

func TestPartitionedRNGStableStreams(t *testing.T) {
	p := NewPartitionedRNG(42)
	// Same key, any call order: identical stream.
	a1 := p.Stream("app-7")
	_ = p.Stream("zeta") // interleaved creation must not perturb app-7
	a2 := p.Stream("app-7")
	for i := 0; i < 100; i++ {
		if v1, v2 := a1.Float64(), a2.Float64(); v1 != v2 {
			t.Fatalf("stream for same key diverged at draw %d: %v vs %v", i, v1, v2)
		}
	}
	// Distinct keys: distinct streams.
	b := p.Stream("app-8")
	same := 0
	c := p.Stream("app-7")
	for i := 0; i < 100; i++ {
		if b.Float64() == c.Float64() {
			same++
		}
	}
	if same > 1 {
		t.Errorf("streams for distinct keys collide on %d/100 draws", same)
	}
	// Distinct seeds: distinct streams for the same key.
	q := NewPartitionedRNG(43)
	if p.Stream("x").Float64() == q.Stream("x").Float64() {
		t.Error("different seeds produced the same stream")
	}
}

func TestShardOfStableAndInRange(t *testing.T) {
	for n := 1; n <= 17; n++ {
		counts := make([]int, n)
		for i := 0; i < 1000; i++ {
			k := fmt.Sprintf("node-%04d", i)
			s := ShardOf(k, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%q,%d) = %d out of range", k, n, s)
			}
			if s != ShardOf(k, n) {
				t.Fatalf("ShardOf unstable for %q", k)
			}
			counts[s]++
		}
		for s, got := range counts {
			if n > 1 && got == 0 {
				t.Errorf("n=%d: shard %d received no keys", n, s)
			}
			_ = s
		}
	}
}
