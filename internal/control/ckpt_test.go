package control

import (
	"bytes"
	"testing"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/sim"
)

// TestRetryJitterDefaulting: the zero value takes the default fraction,
// JitterNone (and any negative) selects an explicit zero-jitter ladder,
// and explicit positive values pass through. Regression for Jitter: 0
// silently meaning "default" with no way to turn jitter off.
func TestRetryJitterDefaulting(t *testing.T) {
	mk := func(j float64) *Loop {
		eng := sim.NewEngine(1)
		return NewLoop(eng, newFakePlant(eng.Now, "a"), LoopConfig{Retry: RetryConfig{Jitter: j}})
	}
	if got := mk(0).cfg.Retry.Jitter; got != 0.25 {
		t.Errorf("Jitter 0 resolved to %v, want default 0.25", got)
	}
	if got := mk(JitterNone).cfg.Retry.Jitter; got != 0 {
		t.Errorf("JitterNone resolved to %v, want 0", got)
	}
	if got := mk(-3).cfg.Retry.Jitter; got != 0 {
		t.Errorf("negative jitter resolved to %v, want 0", got)
	}
	if got := mk(0.1).cfg.Retry.Jitter; got != 0.1 {
		t.Errorf("explicit jitter 0.1 resolved to %v", got)
	}
}

// timedPlant records the sim time of each successful actuation.
type timedPlant struct {
	*fakePlant
	now     func() time.Duration
	applies []time.Duration
}

func (p *timedPlant) ApplyDecision(app string, d Decision) error {
	err := p.fakePlant.ApplyDecision(app, d)
	if err == nil {
		p.applies = append(p.applies, p.now())
	}
	return err
}

// TestRetryJitterNoneExactBackoff: with JitterNone the retry ladder is
// exactly Base·2ⁿ, independent of the seed.
func TestRetryJitterNoneExactBackoff(t *testing.T) {
	for _, seed := range []int64{1, 99} {
		eng := sim.NewEngine(1)
		plant := &timedPlant{fakePlant: newFakePlant(eng.Now, "a"), now: eng.Now}
		plant.failures["a"] = 2
		l := NewLoop(eng, plant, LoopConfig{
			Interval: time.Minute,
			Seed:     seed,
			Retry:    RetryConfig{MaxAttempts: 3, Base: 2 * time.Second, Cap: 30 * time.Second, Jitter: JitterNone},
		})
		l.Add("a", &countingController{})
		l.Start()
		eng.Run(90 * time.Second)
		// Decision at 60s fails twice: retries at +2s and then +4s.
		want := []time.Duration{66 * time.Second}
		if len(plant.applies) != 1 || plant.applies[0] != want[0] {
			t.Errorf("seed %d: applies at %v, want %v", seed, plant.applies, want)
		}
	}
}

// loopFingerprint captures everything CkptSave covers that the test can
// observe without continuing the run.
func loopFingerprint(l *Loop) (LoopStats, uint64, uint64, map[string]Decision, map[string]string) {
	last := make(map[string]Decision)
	status := make(map[string]string)
	for app, st := range l.ctrl {
		if st.hasLast {
			last[app] = st.last
		}
		status[app] = st.h.Status()
	}
	return l.stats, l.rng.Draws(), l.retrySeq, last, status
}

// TestLoopCkptRoundTrip: a loop's full state survives CkptSave/CkptLoad
// into a freshly constructed loop, including retry bookkeeping and the
// jitter RNG position.
func TestLoopCkptRoundTrip(t *testing.T) {
	cfg := LoopConfig{Interval: 30 * time.Second, Seed: 42}
	mk := func() (*sim.Engine, *fakePlant, *Loop) {
		eng := sim.NewEngine(7)
		plant := newFakePlant(eng.Now, "a", "b")
		l := NewLoop(eng, plant, cfg)
		l.Add("a", &countingController{})
		l.Add("b", &countingController{})
		l.Start()
		return eng, plant, l
	}

	eng, plant, l := mk()
	plant.failures["a"] = 5
	eng.Run(10 * time.Minute)

	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	l.CkptSave(w)
	if err := w.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}

	_, _, l2 := mk()
	r, err := ckpt.NewReader(buf.Bytes())
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if _, err := l2.CkptLoad(r); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s1, rng1, seq1, d1, h1 := loopFingerprint(l)
	s2, rng2, seq2, d2, h2 := loopFingerprint(l2)
	if s1 != s2 {
		t.Errorf("stats diverged: %+v vs %+v", s1, s2)
	}
	if rng1 != rng2 {
		t.Errorf("rng position %d vs %d", rng1, rng2)
	}
	if seq1 != seq2 {
		t.Errorf("retrySeq %d vs %d", seq1, seq2)
	}
	for app, d := range d1 {
		if d2[app] != d {
			t.Errorf("lastDecision[%s] %+v vs %+v", app, d, d2[app])
		}
	}
	for app, s := range h1 {
		if h2[app] != s {
			t.Errorf("hardened status[%s] %q vs %q", app, s, h2[app])
		}
	}
}

// TestLoopKillRestart: Kill stops decisions and supersedes in-flight
// retries; LoadState + Restart resumes with the checkpointed controller
// state one interval later.
func TestLoopKillRestart(t *testing.T) {
	eng, plant, l := newTestLoop(t, LoopConfig{Interval: time.Minute, Seed: 3}, "a")
	eng.Run(5 * time.Minute)
	if got := len(plant.applied["a"]); got != 5 {
		t.Fatalf("pre-kill applies = %d, want 5", got)
	}
	blob := l.SaveState()

	l.Kill()
	if !l.Killed() {
		t.Fatal("Killed() false after Kill")
	}
	eng.Run(10 * time.Minute) // dead window: no decisions
	if got := len(plant.applied["a"]); got != 5 {
		t.Fatalf("applies during dead window = %d, want still 5", got)
	}

	if err := l.LoadState(blob); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	l.Restart()
	eng.Run(13 * time.Minute) // restart at 10m: steps at 11m, 12m, 13m
	if got := len(plant.applied["a"]); got != 8 {
		t.Errorf("post-restart applies = %d, want 8", got)
	}
	if s := l.Stats(); s.Decisions != 8 {
		t.Errorf("decisions = %d, want 8", s.Decisions)
	}
}

// TestLoopKillSupersedesRetries: a retry scheduled before Kill fires as
// a no-op after it — the in-flight decision died with the process.
func TestLoopKillSupersedesRetries(t *testing.T) {
	eng, plant, l := newTestLoop(t, LoopConfig{
		Interval: time.Minute,
		Retry:    RetryConfig{MaxAttempts: 3, Base: 30 * time.Second, Cap: time.Minute, Jitter: JitterNone},
	}, "a")
	plant.failures["a"] = 1
	eng.Run(61 * time.Second) // decision at 60s failed; retry armed for ~90s
	l.Kill()
	eng.Run(5 * time.Minute)
	if got := len(plant.applied["a"]); got != 0 {
		t.Errorf("superseded retry landed %d times after Kill", got)
	}
	if len(l.pendingRetries) != 0 {
		t.Errorf("pendingRetries not drained: %v", l.pendingRetries)
	}
}
