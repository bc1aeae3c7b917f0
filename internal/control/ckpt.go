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
	w.Str(h.status)
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
	h.status = r.Str()
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
		w.Str(app)
		l.ctrl[app].ckptSave(w)
		d, ok := l.lastDecision[app]
		w.Bool(ok)
		if ok {
			saveDecision(w, d)
		}
		w.Int(l.prevAdapts[app])
		w.Str(l.lastRationale[app])
		since, ok := l.degradedSince[app]
		w.Bool(ok)
		if ok {
			w.Dur(since)
		}
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
		h, ok := l.ctrl[app]
		if r.Err() != nil {
			return r.Err()
		}
		if !ok {
			return fmt.Errorf("control: ckpt: unknown app %q", app)
		}
		if err := h.ckptLoad(r); err != nil {
			return err
		}
		if r.Bool() {
			l.lastDecision[app] = loadDecision(r)
		} else {
			delete(l.lastDecision, app)
		}
		if v := r.Int(); v != 0 {
			l.prevAdapts[app] = v
		} else {
			delete(l.prevAdapts, app)
		}
		if s := r.Str(); s != "" {
			l.lastRationale[app] = s
		} else {
			delete(l.lastRationale, app)
		}
		if r.Bool() {
			l.degradedSince[app] = r.Dur()
		} else {
			delete(l.degradedSince, app)
		}
	}
	return r.Err()
}

// CkptSave writes the loop's full state into a world checkpoint:
// controller-process state plus the world-timeline bookkeeping (jitter
// RNG position, retry generations, pending retry descriptors, stats).
func (l *Loop) CkptSave(w *ckpt.Writer) {
	w.Begin("loop")
	l.saveCtrlState(w)
	w.U64(l.rng.Draws())
	gens := make([]string, 0, len(l.retryGen))
	for app := range l.retryGen {
		gens = append(gens, app)
	}
	sort.Strings(gens)
	w.Int(len(gens))
	for _, app := range gens {
		w.Str(app)
		w.U64(l.retryGen[app])
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
}

// CkptLoad restores the loop's full state from a world checkpoint.
func (l *Loop) CkptLoad(r *ckpt.Reader) error {
	r.Begin("loop")
	if err := l.loadCtrlState(r); err != nil {
		return err
	}
	draws := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if err := l.rng.Burn(draws); err != nil {
		return err
	}
	ng := r.Count(16)
	if r.Err() != nil {
		return r.Err()
	}
	l.retryGen = make(map[string]uint64, ng)
	for i := 0; i < ng; i++ {
		app := r.Str()
		l.retryGen[app] = r.U64()
	}
	np := r.Count(16)
	if r.Err() != nil {
		return r.Err()
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
	return r.Err()
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
	return func() {
		delete(l.pendingRetries, key)
		if l.retryGen[e.app] != e.gen {
			return
		}
		l.actuate(e.app, e.d, e.attempt+1, e.gen)
	}, nil
}

// SaveState serialises the controller-process state alone — the blob the
// ctrl-crash recovery path hands back to Restart via LoadState. It
// models the control plane's own checkpoint file: controllers, health
// wrappers and last decisions, but nothing about world-timeline timers.
// The blob is a copy; the encoding buffers are kept for the next call.
func (l *Loop) SaveState() ([]byte, error) {
	w := ckpt.NewBufferWriter(l.stateBufs)
	l.saveCtrlState(w)
	if err := w.Close(); err != nil {
		return nil, err
	}
	l.stateBufs = w.Buffers()
	return w.Segments().Bytes(), nil
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
