package sim

import (
	"fmt"
	"testing"
	"time"
)

// Regression: cancelling a periodic process must kill the pending
// re-arm event in the heap, not just flag future firings off. Before
// the fix, Pending/PeekNextEventTime reported phantom work after
// cancel, so a coordinator would wake an idle shard.
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
	if _, ok := e.PeekNextEventTime(); ok {
		t.Error("PeekNextEventTime reports work after cancel")
	}
	if !t.Failed() {
		cancel() // double-cancel must be a safe no-op
		if e.Pending() != 0 {
			t.Errorf("Pending = %d after double cancel, want 0", e.Pending())
		}
	}
	e.Run(10 * time.Second)
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

func TestPendingCountsLiveEventsOnly(t *testing.T) {
	e := NewEngine(1)
	c1 := e.At(time.Second, func() {})
	e.At(2*time.Second, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	c1()
	if e.Pending() != 1 {
		t.Errorf("Pending = %d after cancel, want 1", e.Pending())
	}
	if at, ok := e.PeekNextEventTime(); !ok || at != 2*time.Second {
		t.Errorf("PeekNextEventTime = %v,%v; want 2s,true (dead head must be skipped)", at, ok)
	}
	c1() // idempotent
	if e.Pending() != 1 {
		t.Errorf("Pending = %d after double cancel, want 1", e.Pending())
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

func TestProcessNextEventPrimitives(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Post(2*time.Second, func() { got = append(got, 2) })
	e.Post(1*time.Second, func() { got = append(got, 1) })
	if !e.HasPendingEvents() {
		t.Fatal("HasPendingEvents = false with queued work")
	}
	at, ok := e.PeekNextEventTime()
	if !ok || at != time.Second {
		t.Fatalf("PeekNextEventTime = %v,%v; want 1s,true", at, ok)
	}
	if e.Now() != 0 {
		t.Fatal("Peek must not advance the clock")
	}
	at, ok = e.ProcessNextEvent()
	if !ok || at != time.Second || e.Now() != time.Second {
		t.Fatalf("ProcessNextEvent = %v,%v now=%v", at, ok, e.Now())
	}
	at, ok = e.ProcessNextEvent()
	if !ok || at != 2*time.Second {
		t.Fatalf("second ProcessNextEvent = %v,%v", at, ok)
	}
	if _, ok := e.ProcessNextEvent(); ok {
		t.Error("ProcessNextEvent on empty queue reported ok")
	}
	if e.HasPendingEvents() {
		t.Error("HasPendingEvents = true on drained engine")
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("order = %v", got)
	}
	e.AdvanceTo(10 * time.Second)
	if e.Now() != 10*time.Second {
		t.Errorf("AdvanceTo: now = %v", e.Now())
	}
	e.AdvanceTo(5 * time.Second)
	if e.Now() != 10*time.Second {
		t.Error("AdvanceTo moved the clock backwards")
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

// coordScenario runs a synthetic partitioned workload: the primary
// ticks periodically, fanning a phase event to every shard keyed by a
// PartitionedRNG stream; shards post cross-shard mail that mutates a
// shared journal at the barrier. The journal string must be identical
// for any (shard count kept fixed) worker count.
func coordScenario(workers int) string {
	primary := NewEngine(7)
	co := NewCoordinator(primary, 4, workers)
	prng := NewPartitionedRNG(7)
	journal := ""
	// Per-shard state: a counter advanced by the shard's own stream.
	vals := make([]float64, co.NumShards())
	streams := make([]*RNG, co.NumShards())
	for i := range streams {
		streams[i] = prng.Stream(fmt.Sprintf("shard-%d", i))
	}
	tick := func() {
		now := primary.Now()
		for i := 0; i < co.NumShards(); i++ {
			i := i
			co.Shard(i).Post(now, func() {
				vals[i] += streams[i].Float64()
				v := vals[i]
				co.Mail(i, func() {
					journal += fmt.Sprintf("t=%v s=%d v=%.6f\n", now, i, v)
				})
			})
		}
		co.DrainShards(now)
		journal += fmt.Sprintf("t=%v total=%.6f\n", now, vals[0]+vals[1]+vals[2]+vals[3])
	}
	primary.Every(time.Second, tick)
	co.Run(20 * time.Second)
	return journal
}

func TestCoordinatorDeterministicAcrossWorkers(t *testing.T) {
	base := coordScenario(1)
	if base == "" {
		t.Fatal("scenario produced no journal")
	}
	for _, w := range []int{2, 4, 8} {
		if got := coordScenario(w); got != base {
			t.Errorf("workers=%d journal diverged from serial baseline", w)
		}
	}
}

// Parallel same-timestamp ticking must actually engage the pool (race
// coverage: this test runs multi-goroutine kernel code under -race).
func TestCoordinatorParallelRoundsEngage(t *testing.T) {
	primary := NewEngine(7)
	co := NewCoordinator(primary, 4, 4)
	var sum [4]int
	for r := 0; r < 50; r++ {
		at := time.Duration(r+1) * time.Second
		for i := 0; i < 4; i++ {
			i := i
			co.Shard(i).Post(at, func() { sum[i]++ })
		}
	}
	co.Run(100 * time.Second)
	for i, v := range sum {
		if v != 50 {
			t.Errorf("shard %d ran %d events, want 50", i, v)
		}
	}
	_, parallel := co.Rounds()
	if parallel == 0 {
		t.Error("no parallel rounds engaged with workers=4 and 4 same-timestamp shards")
	}
	steps := co.ShardSteps(nil)
	for i, s := range steps {
		if s != 50 {
			t.Errorf("ShardSteps[%d] = %d, want 50", i, s)
		}
	}
}

// Shards must win ties with the primary: fan-out work at time t runs
// before the next primary event at t even when the primary event was
// scheduled first.
func TestCoordinatorShardsWinTies(t *testing.T) {
	primary := NewEngine(1)
	co := NewCoordinator(primary, 2, 1)
	var order []string
	primary.Post(time.Second, func() { order = append(order, "primary") })
	co.Shard(0).Post(time.Second, func() { order = append(order, "shard0") })
	co.Shard(1).Post(time.Second, func() { order = append(order, "shard1") })
	co.Run(2 * time.Second)
	want := "[shard0 shard1 primary]"
	if got := fmt.Sprintf("%v", order); got != want {
		t.Errorf("order = %v, want %v", got, want)
	}
	if co.Primary().Now() != 2*time.Second || co.Shard(0).Now() != 2*time.Second {
		t.Errorf("clocks not advanced to horizon: primary=%v shard0=%v",
			co.Primary().Now(), co.Shard(0).Now())
	}
}

func TestCoordinatorMailOrdering(t *testing.T) {
	primary := NewEngine(1)
	co := NewCoordinator(primary, 3, 1)
	var got []int
	// Post mail from shards in reverse shard order; the barrier must
	// apply it in shard-index order regardless.
	for i := 2; i >= 0; i-- {
		i := i
		co.Shard(i).Post(time.Second, func() {
			co.Mail(i, func() { got = append(got, i) })
		})
	}
	co.Run(time.Second)
	if fmt.Sprintf("%v", got) != "[0 1 2]" {
		t.Errorf("mail applied in order %v, want [0 1 2]", got)
	}
}

func TestProcessEventsAt(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.Post(time.Second, func() { got = append(got, "a") })
	dead := e.At(time.Second, func() { got = append(got, "cancelled") })
	e.Post(time.Second, func() { got = append(got, "b") })
	e.Post(2*time.Second, func() { got = append(got, "later") })
	dead()

	if n := e.ProcessEventsAt(time.Second); n != 2 {
		t.Fatalf("ProcessEventsAt(1s) = %d executed, want 2", n)
	}
	if fmt.Sprintf("%v", got) != "[a b]" {
		t.Fatalf("executed %v, want [a b] (FIFO at t, dead skipped, later untouched)", got)
	}
	if e.Now() != time.Second {
		t.Errorf("clock = %v, want 1s", e.Now())
	}
	if at, ok := e.PeekNextEventTime(); !ok || at != 2*time.Second {
		t.Errorf("next event = %v,%v, want 2s,true", at, ok)
	}
	// Nothing at 1s anymore: a second call is a no-op.
	if n := e.ProcessEventsAt(time.Second); n != 0 {
		t.Errorf("second ProcessEventsAt(1s) = %d, want 0", n)
	}
	// An event that posts a same-timestamp follow-up drains in the same
	// call — that is what collapses a tick's fan-out to one round.
	e.Post(2*time.Second, func() {
		e.Post(2*time.Second, func() { got = append(got, "chained") })
	})
	if n := e.ProcessEventsAt(2 * time.Second); n != 3 {
		t.Errorf("ProcessEventsAt(2s) = %d executed, want 3 (incl. chained)", n)
	}
	if got[len(got)-1] != "chained" {
		t.Errorf("chained follow-up did not run: %v", got)
	}
}

// A mail-free DrainShards takes exactly one round per phase: every
// active shard drains all its events at the timestamp — including the
// same-timestamp follow-ups it posts for itself — and with no barrier
// mail nothing can arm another event at t, so no confirming round runs.
// Each shard still executes its own events in FIFO order.
func TestDrainShardsOneRoundPerPhase(t *testing.T) {
	primary := NewEngine(3)
	co := NewCoordinator(primary, 2, 1)
	var journals [2]string
	const phases, events = 3, 5
	primary.Every(time.Second, func() {
		now := primary.Now()
		for ph := 0; ph < phases; ph++ {
			for i := 0; i < co.NumShards(); i++ {
				i, ph := i, ph
				for k := 0; k < events; k++ {
					k := k
					co.Shard(i).Post(now, func() {
						journals[i] += fmt.Sprintf("%v/p%de%d ", now, ph, k)
						if k == events-1 {
							// A same-timestamp follow-up drains in the same round.
							co.Shard(i).Post(now, func() { journals[i] += "+ " })
						}
					})
				}
			}
			co.DrainShards(now)
		}
	})
	co.Run(10 * time.Second)
	if total, _ := co.Rounds(); total != 10*phases {
		t.Errorf("rounds = %d, want %d (one per phase per tick)", total, 10*phases)
	}
	for i, j := range journals {
		want := ""
		for tick := 1; tick <= 10; tick++ {
			for ph := 0; ph < phases; ph++ {
				for k := 0; k < events; k++ {
					want += fmt.Sprintf("%v/p%de%d ", time.Duration(tick)*time.Second, ph, k)
				}
				want += "+ "
			}
		}
		if j != want {
			t.Errorf("shard %d journal out of order:\n got %s\nwant %s", i, j, want)
		}
	}
}

// A steady-state batched round must not allocate: stepJob reuse, the
// engine free list and the active scratch slice make DrainShards
// allocation-free once warm.
func TestBatchedRoundAllocs(t *testing.T) {
	primary := NewEngine(1)
	co := NewCoordinator(primary, 1, 1)
	sink := 0
	fn := func() { sink++ }
	var at Time
	tick := func() {
		at += time.Second
		for k := 0; k < 8; k++ {
			co.Shard(0).Post(at, fn)
		}
		co.DrainShards(at)
	}
	tick() // warm the free list and scratch slices
	if avg := testing.AllocsPerRun(100, tick); avg != 0 {
		t.Errorf("steady-state batched round allocates %.1f times", avg)
	}
	if sink == 0 {
		t.Fatal("events did not run")
	}
}
