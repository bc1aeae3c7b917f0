package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"evolve"
)

// episode is one untraced run of a world through the facade, from
// evolve.New to the end of the horizon. Times are normalised (ref.go).
type episode struct {
	setup      time.Duration   // evolve.New to the end of the first tick
	slices     []time.Duration // each Run slice after set-up
	wall       time.Duration   // raw wall time of the slices
	allocBytes uint64          // heap allocated inside the slices
	heapBytes  uint64          // live heap after a full GC at the horizon
	report     string
	cl         *evolve.Cluster // the world, at the horizon
	// early and late are checkpoints from the start of the first and the
	// last tenth of the horizon, kept outside the Go heap (see
	// offHeapCopy). early is taken right after set-up, between Run calls;
	// for worlds with periodic checkpoints, late is the newest one at the
	// start of the last tenth, up to one period earlier.
	early, late []byte
}

// free releases the episode's held checkpoints.
func (e *episode) free() {
	freeOffHeap(e.early)
	freeOffHeap(e.late)
}

// tenth is how many slices make a tenth of the horizon.
func tenth(w *world) int { return max(w.slices/10, 1) }

// lateStart is the simulated time at which the last tenth starts.
func lateStart(w *world) time.Duration {
	return tickEvery + w.horizon - time.Duration(tenth(w))*(w.horizon/time.Duration(w.slices))
}

// sum adds durations.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// offHeapCopy copies b into memory outside the Go heap, so a checkpoint
// the benchmark holds for later checks changes neither the heap metrics
// nor the collector's heap goal for the world being measured. Release
// it with freeOffHeap.
func offHeapCopy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	c := offHeap(len(b))
	copy(c, b)
	return c
}

func freeOffHeap(b []byte) {
	if b != nil {
		_ = syscall.Munmap(b) // only fails for a mapping we did not make
	}
}

// setUp builds a world through the facade and runs its first tick,
// returning the world and the normalised time taken.
func setUp(w *world, s sinks, tr *speedTrack, l *ledger) (*evolve.Cluster, time.Duration, error) {
	var cl *evolve.Cluster
	tr.sample(refWindow)
	sec, err := tr.time(func() error {
		var err error
		if cl, err = w.build(s); err != nil {
			return err
		}
		return cl.Run(tickEvery)
	})
	tr.sample(refWindow - 1)
	if cl == nil {
		return nil, 0, fmt.Errorf("build %s: %w", w.name, err)
	}
	if !l.op(err) {
		return nil, 0, fmt.Errorf("%s: first tick failed", w.name)
	}
	return cl, tr.norm(sec), nil
}

// quietSinks returns untimed in-memory trace sinks.
func quietSinks() sinks { return sinks{events: &sink{}, spans: &sink{}} }

// checkpoint returns the checkpoint the benchmark keeps of cl: the
// newest periodic one where the world takes them, otherwise one taken
// now, between Run calls.
func checkpoint(w *world, cl *evolve.Cluster, l *ledger) ([]byte, error) {
	if w.ckptEvery > 0 {
		return cl.LastCheckpoint(), nil
	}
	var buf bytes.Buffer
	if !l.op(cl.Checkpoint(&buf)) {
		return nil, fmt.Errorf("%s: checkpoint at %v failed", w.name, cl.Now())
	}
	return buf.Bytes(), nil
}

// runEpisode runs one untraced episode. The caller frees it.
func runEpisode(w *world, l *ledger) (*episode, error) {
	runtime.GC()
	tr := &speedTrack{}
	cl, setup, err := setUp(w, quietSinks(), tr, l)
	if err != nil {
		return nil, err
	}
	e := &episode{setup: setup, cl: cl}
	var buf bytes.Buffer
	if !l.op(cl.Checkpoint(&buf)) {
		return nil, fmt.Errorf("%s: checkpoint after set-up failed", w.name)
	}
	e.early = offHeapCopy(buf.Bytes())
	step := w.horizon / time.Duration(w.slices)
	secs := make([]section, 0, w.slices)
	for i := 0; i < w.slices; i++ {
		if i == w.slices-tenth(w) {
			b, err := checkpoint(w, cl, l)
			if err != nil {
				e.free()
				return nil, err
			}
			e.late = offHeapCopy(b)
		}
		alloc0 := readRuntime().allocBytes
		sec, err := tr.time(func() error { return cl.Run(step) })
		e.allocBytes += readRuntime().allocBytes - alloc0
		secs = append(secs, sec)
		e.wall += sec.wall
		if !l.op(err) {
			e.free()
			return nil, fmt.Errorf("%s: run slice %d failed", w.name, i)
		}
	}
	for _, sec := range secs {
		e.slices = append(e.slices, tr.norm(sec))
	}
	runtime.GC()
	e.heapBytes = readRuntime().liveHeap
	e.report = cl.Report().String()
	return e, nil
}

// checkRestore runs the restore-and-continue correctness check on the
// first episode and returns the size of its horizon checkpoint.
func checkRestore(w *world, e *episode, l *ledger) (int, error) {
	// Restore the checkpoint from the start of the last tenth and run to
	// the horizon: the report must match the uninterrupted run's. (Not
	// right after restoring the final periodic checkpoint: events sharing
	// its timestamp fire after the checkpoint timer, so the snapshot
	// precedes them and the reports would differ for that reason alone.)
	r, err := w.build(quietSinks())
	if err != nil {
		return 0, err
	}
	if l.op(r.Restore(bytes.NewReader(e.late))) && l.op(r.Run(e.cl.Now()-r.Now())) {
		got := r.Report().String()
		l.check(got == e.report, "%s: restore-and-continue report differs:\n%s\nwant:\n%s", w.name, got, e.report)
	}
	final, err := checkpoint(w, e.cl, l)
	return len(final), err
}

// pairRun measures the first and the last tenth of the horizon side by
// side. It restores the checkpoints from the start of each tenth into
// two freshly built worlds, runs the second on to the exact start of
// its tenth, then times their slices alternately: first-tenth slice,
// last-tenth slice, and so on. The host's drift over seconds then moves
// both sums alike and cancels in their ratio, which it does not when
// the tenths are timed ten seconds apart within an episode. Both worlds
// are restored, so neither carries a longer-lived heap than the other.
// The collector runs between the slices and is paused inside them: two
// live worlds would otherwise make each tenth pay for marking the
// other's heap.
func pairRun(w *world, e *episode, l *ledger) (float64, error) {
	worlds := make([]*evolve.Cluster, 2)
	for i, ck := range [][]byte{e.early, e.late} {
		cl, err := w.build(quietSinks())
		if err != nil {
			return 0, err
		}
		if !l.op(cl.Restore(bytes.NewReader(ck))) {
			return 0, fmt.Errorf("%s: restoring a tenth's checkpoint failed", w.name)
		}
		worlds[i] = cl
	}
	early, last := worlds[0], worlds[1]
	if d := lateStart(w) - last.Now(); d > 0 && !l.op(last.Run(d)) {
		return 0, fmt.Errorf("%s: running to the last tenth failed", w.name)
	}
	step := w.horizon / time.Duration(w.slices)
	tr := &speedTrack{}
	tr.sample(refWindow)
	var firsts, lasts []section
	for i := 0; i < tenth(w); i++ {
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		a, errA := tr.time(func() error { return early.Run(step) })
		b, errB := tr.time(func() error { return last.Run(step) })
		debug.SetGCPercent(gcPercent)
		if !l.op(errA) || !l.op(errB) {
			return 0, fmt.Errorf("%s: paired slice %d failed", w.name, i)
		}
		firsts, lasts = append(firsts, a), append(lasts, b)
	}
	tr.sample(refWindow - 1)
	var f, g time.Duration
	for i := range firsts {
		f += tr.norm(firsts[i])
		g += tr.norm(lasts[i])
	}
	return float64(g) / float64(f), nil
}

// minEpisodes is the fewest episodes a run makes.
const minEpisodes = 2

// setup_s takes its median over the episodes' set-ups, topped up with
// set-up-only builds to minSetups while they fit setupBudget.
const (
	minSetups   = 25
	setupBudget = time.Second
)

// A run adds paired runs after its episodes until there are maxPairs or
// they have taken pairBudget; never fewer than minPairs.
const (
	minPairs   = 3
	maxPairs   = 15
	pairBudget = 5 * time.Second
)

// untracedRuns repeats untraced episodes of w while the next one still
// fits the wall-time budget (at least minEpisodes), runs the checks and
// paired runs on the first, and reports the end-to-end metrics as
// medians.
func untracedRuns(w *world, budget time.Duration, l *ledger) (map[string]metric, error) {
	var (
		setups, ratios, perHour, alloc, heap []float64
		ckptBytes                            int
		first                                *episode
		spent                                time.Duration
	)
	defer func() {
		if first != nil {
			first.free()
		}
	}()
	hours := w.horizon.Hours()
	for n := 0; ; n++ {
		t0 := time.Now()
		e, err := runEpisode(w, l)
		if err != nil {
			if n == 0 {
				return nil, err
			}
			break
		}
		took := time.Since(t0)
		spent += took
		fmt.Fprintf(os.Stderr, "e2ebench: %s episode %d: setup %.4fs, %.4fs per sim hour (raw wall %.4fs), %.1fs in all\n",
			w.name, n, e.setup.Seconds(), sum(e.slices).Seconds()/hours, e.wall.Seconds()/hours, took.Seconds())
		setups = append(setups, e.setup.Seconds())
		perHour = append(perHour, sum(e.slices).Seconds()/hours)
		alloc = append(alloc, float64(e.allocBytes)/mb/hours)
		heap = append(heap, float64(e.heapBytes)/mb)
		if n == 0 {
			first = e
			if ckptBytes, err = checkRestore(w, e, l); err != nil {
				return nil, err
			}
			e.cl = nil
		} else {
			l.check(e.report == first.report, "%s: episode %d report differs from episode 0 on the same seed", w.name, n)
			e.free()
		}
		// Stop before an episode that would overrun the budget, but not
		// before minEpisodes: a slow stretch of the host must not leave a
		// median of one.
		if n+1 >= minEpisodes && spent+took > budget {
			break
		}
	}
	for t0 := time.Now(); len(ratios) < minPairs || len(ratios) < maxPairs && time.Since(t0) < pairBudget; {
		ratio, err := pairRun(w, first, l)
		if err != nil {
			return nil, err
		}
		ratios = append(ratios, ratio)
	}
	// A set-up of a few milliseconds jitters by tens of percent, so cheap
	// set-ups are repeated on their own until there are minSetups, while
	// the next one (judged by the median so far) fits setupBudget.
	for t0 := time.Now(); len(setups) < minSetups && time.Since(t0)+secs(median(setups)) < setupBudget; {
		runtime.GC()
		_, setup, err := setUp(w, quietSinks(), &speedTrack{}, l)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s last/first tenth ratios %.3f, set-ups %.4f s\n", w.name, ratios, setups)
	return map[string]metric{
		"setup_s":               {median(setups), "s"},
		"wall_s_per_sim_hour":   {median(perHour), "s"},
		"late_early_cost_ratio": {median(ratios), "ratio"},
		"alloc_mb_per_sim_hour": {median(alloc), "MB"},
		"peak_heap_mb":          {median(heap), "MB"},
		"ckpt_mb_last":          {float64(ckptBytes) / mb, "MB"},
	}, nil
}
