package control

import (
	"fmt"
	"sort"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/resource"
)

// StateSaver is implemented by controllers with internal state that must
// survive a checkpoint (PID integrals, usage histories, learned models).
// Controllers that do not implement it are treated as stateless; a
// stateful controller without it restores cold, which breaks the
// byte-identical-resume invariant — implement it.
type StateSaver interface {
	CkptSave(w *ckpt.Writer)
	CkptLoad(r *ckpt.Reader) error
}

func saveDecision(w *ckpt.Writer, d Decision) {
	w.Int(d.Replicas)
	d.Alloc.CkptSave(w)
}

func loadDecision(r *ckpt.Reader) Decision {
	return Decision{Replicas: r.Int(), Alloc: resource.LoadVector(r)}
}

// ckptSaveHardened writes the degraded-mode wrapper plus its inner
// controller's state.
func (h *Hardened) ckptSave(w *ckpt.Writer) {
	w.Int(h.blind)
	w.Bool(h.degraded)
	saveDecision(w, h.lastSafe)
	w.Bool(h.haveSafe)
	h.health.CkptSave(w)
	if s, ok := h.inner.(StateSaver); ok {
		w.Bool(true)
		s.CkptSave(w)
	} else {
		w.Bool(false)
	}
}

func (h *Hardened) ckptLoad(r *ckpt.Reader) error {
	h.blind = r.Int()
	h.degraded = r.Bool()
	h.lastSafe = loadDecision(r)
	h.haveSafe = r.Bool()
	health, err := LoadHealth(r)
	if err != nil {
		return err
	}
	h.health = health
	hasState := r.Bool()
	s, ok := h.inner.(StateSaver)
	if r.Err() != nil {
		return r.Err()
	}
	if hasState != ok {
		return fmt.Errorf("control: ckpt: controller %s state presence mismatch", h.inner.Name())
	}
	if hasState {
		return s.CkptLoad(r)
	}
	return nil
}

// apps returns the loop's app names in sorted order.
func (l *Loop) apps() []string {
	names := make([]string, 0, len(l.ctrl))
	for app := range l.ctrl {
		names = append(names, app)
	}
	sort.Strings(names)
	return names
}

// saveCtrlState writes the controller-process state: what the control
// plane's own checkpoint would hold. Deliberately excludes live-timer
// bookkeeping (retry generations, pending retries) and the jitter RNG
// position — those belong to the world timeline, not the process.
func (l *Loop) saveCtrlState(w *ckpt.Writer) {
	w.Begin("loop-ctrl")
	apps := l.apps()
	w.Int(len(apps))
	for _, app := range apps {
		st := l.ctrl[app]
		w.Str(app)
		st.h.ckptSave(w)
		w.Bool(st.hasLast)
		if st.hasLast {
			saveDecision(w, st.last)
		}
		w.Int(st.prevAdapts)
		st.lastReason.CkptSave(w)
		w.Dur(st.degradedSince)
	}
}

func (l *Loop) loadCtrlState(r *ckpt.Reader) error {
	r.Begin("loop-ctrl")
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if n != len(l.ctrl) {
		return fmt.Errorf("control: ckpt: %d apps in checkpoint, loop has %d", n, len(l.ctrl))
	}
	for i := 0; i < n; i++ {
		app := r.Str()
		st, ok := l.ctrl[app]
		if r.Err() != nil {
			return r.Err()
		}
		if !ok {
			return fmt.Errorf("control: ckpt: unknown app %q", app)
		}
		if err := st.h.ckptLoad(r); err != nil {
			return err
		}
		st.last, st.hasLast = Decision{}, r.Bool()
		if st.hasLast {
			st.last = loadDecision(r)
		}
		st.prevAdapts = r.Int()
		reason, err := LoadReason(r)
		if err != nil {
			return err
		}
		st.lastReason = reason
		st.degradedSince = r.Dur()
	}
	return r.Err()
}

// CkptSave writes the loop's full state into a world checkpoint: the
// controller-process state as a SaveState blob, which it returns for the
// caller to keep as a restart point, then the world-timeline bookkeeping
// (jitter RNG position, retry generations in app order, pending retry
// descriptors, stats).
func (l *Loop) CkptSave(w *ckpt.Writer) (ctrlState []byte) {
	ctrlState = l.SaveState()
	w.Begin("loop")
	w.Bytes(ctrlState)
	w.U64(l.rng.Draws())
	for _, app := range l.apps() {
		w.U64(l.ctrl[app].retryGen)
	}
	keys := make([]string, 0, len(l.pendingRetries))
	for k := range l.pendingRetries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Int(len(keys))
	for _, k := range keys {
		e := l.pendingRetries[k]
		w.Str(k)
		w.Str(e.app)
		saveDecision(w, e.d)
		w.Int(e.attempt)
		w.U64(e.gen)
	}
	w.U64(l.retrySeq)
	w.U64(l.stats.Decisions)
	w.U64(l.stats.DegradedPeriods)
	w.U64(l.stats.DegradedTransitions)
	w.U64(l.stats.Retries)
	w.U64(l.stats.Abandoned)
	w.Bool(l.started)
	w.Bool(l.killed)
	return ctrlState
}

// CkptLoad restores the loop's full state from a world checkpoint and
// returns the SaveState blob of the controller-process state it held.
func (l *Loop) CkptLoad(r *ckpt.Reader) (ctrlState []byte, err error) {
	r.Begin("loop")
	ctrlState = r.Bytes()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if err := l.LoadState(ctrlState); err != nil {
		return nil, err
	}
	l.rng.Seek(r.U64())
	for _, app := range l.apps() {
		l.ctrl[app].retryGen = r.U64()
	}
	np := r.Count(16)
	if r.Err() != nil {
		return nil, r.Err()
	}
	l.pendingRetries = make(map[string]retryEntry, np)
	for i := 0; i < np; i++ {
		k := r.Str()
		e := retryEntry{app: r.Str(), d: loadDecision(r), attempt: r.Int(), gen: r.U64()}
		l.pendingRetries[k] = e
	}
	l.retrySeq = r.U64()
	l.stats.Decisions = r.U64()
	l.stats.DegradedPeriods = r.U64()
	l.stats.DegradedTransitions = r.U64()
	l.stats.Retries = r.U64()
	l.stats.Abandoned = r.U64()
	l.started = r.Bool()
	l.killed = r.Bool()
	return ctrlState, r.Err()
}

// RebuildTimer returns the callback for a checkpointed loop timer, keyed
// by its tag: "retry"/<key> timers replay their pending-retry
// descriptor. The world restorer calls this for loop-owned tags that had
// no fresh-world counterpart.
func (l *Loop) RebuildTimer(kind, key string) (func(), error) {
	if kind != "retry" {
		return nil, fmt.Errorf("control: no rebuilder for timer kind %q", kind)
	}
	e, ok := l.pendingRetries[key]
	if !ok {
		return nil, fmt.Errorf("control: pending retry %q not in checkpoint state", key)
	}
	st, ok := l.ctrl[e.app]
	if !ok {
		return nil, fmt.Errorf("control: pending retry %q for unknown app %q", key, e.app)
	}
	return func() {
		delete(l.pendingRetries, key)
		if st.retryGen != e.gen {
			return
		}
		l.actuate(e.app, st, e.d, e.attempt+1, e.gen)
	}, nil
}

// SaveState serialises the controller-process state alone — the blob the
// ctrl-crash recovery path hands back to Restart via LoadState. It
// models the control plane's own checkpoint file: controllers, health
// wrappers and last decisions, but nothing about world-timeline timers.
// The blob is a copy; the encoding buffers are kept for the next call.
func (l *Loop) SaveState() []byte {
	w := ckpt.NewBufferWriter(l.stateBufs)
	l.saveCtrlState(w)
	w.Close() // a buffer writer has no write to fail
	l.stateBufs = w.Buffers()
	return w.Segments().Bytes()
}

// LoadState restores controller-process state from a SaveState blob; the
// ctrl-crash restore path calls it just before Restart.
func (l *Loop) LoadState(blob []byte) error {
	r, err := ckpt.NewReader(blob)
	if err != nil {
		return err
	}
	if err := l.loadCtrlState(r); err != nil {
		return err
	}
	return r.Close()
}

// Interval returns the loop's control period (used by recovery-time
// accounting in the harness).
func (l *Loop) Interval() time.Duration { return l.cfg.Interval }
