package pid

import (
	"fmt"

	"evolve/internal/ckpt"
)

// Checkpoint serialisation. Configuration is not serialised — a restore
// target is an identically-constructed controller — except for the
// fields mutated at runtime: the gains (the adaptive tuner rewrites
// them) and Multi's utilisation target (retargeted per decision).

// CkptSave writes the controller's mutable state.
func (c *Controller) CkptSave(w *ckpt.Writer) {
	g := c.cfg.Gains
	w.F64(g.Kp)
	w.F64(g.Ki)
	w.F64(g.Kd)
	w.F64(c.integral)
	w.F64(c.prevMeas)
	w.F64(c.prevDeriv)
	w.Bool(c.havePrev)
	w.F64(c.lastOutput)
	w.F64(c.lastErr)
	saveTerm(w, c.lastTerm)
}

// CkptLoad restores the controller's mutable state.
func (c *Controller) CkptLoad(r *ckpt.Reader) error {
	c.cfg.Gains.Kp = r.F64()
	c.cfg.Gains.Ki = r.F64()
	c.cfg.Gains.Kd = r.F64()
	c.integral = r.F64()
	c.prevMeas = r.F64()
	c.prevDeriv = r.F64()
	c.havePrev = r.Bool()
	c.lastOutput = r.F64()
	c.lastErr = r.F64()
	c.lastTerm = loadTerm(r)
	return r.Err()
}

func saveTerm(w *ckpt.Writer, t Term) {
	w.F64(t.Err)
	w.F64(t.P)
	w.F64(t.I)
	w.F64(t.D)
	w.F64(t.Out)
	w.Bool(t.Clamped)
}

func loadTerm(r *ckpt.Reader) Term {
	return Term{Err: r.F64(), P: r.F64(), I: r.F64(), D: r.F64(), Out: r.F64(), Clamped: r.Bool()}
}

// CkptSave writes the tuner's mutable state (the gain ratios are fixed
// at construction and not serialised).
func (t *Tuner) CkptSave(w *ckpt.Writer) {
	w.Int(len(t.errs))
	for _, e := range t.errs {
		w.F64(e)
	}
	w.Int(t.sincTune)
	w.Int(t.adapts)
}

// CkptLoad restores the tuner's mutable state.
func (t *Tuner) CkptLoad(r *ckpt.Reader) error {
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if n < 0 || n > t.cfg.Window {
		return fmt.Errorf("pid: ckpt: tuner window length %d out of range", n)
	}
	t.errs = make([]float64, n, t.cfg.Window)
	for i := range t.errs {
		t.errs[i] = r.F64()
	}
	t.sincTune = r.Int()
	t.adapts = r.Int()
	return r.Err()
}

// CkptSave writes the multi-controller's mutable state: the adapted
// utilisation target plus every per-dimension controller and tuner.
func (m *Multi) CkptSave(w *ckpt.Writer) {
	w.F64(m.cfg.UtilTarget)
	for k, c := range m.ctrls {
		c.CkptSave(w)
		if t := m.tuners[k]; t != nil {
			w.Bool(true)
			t.CkptSave(w)
		} else {
			w.Bool(false)
		}
	}
}

// CkptLoad restores the multi-controller's mutable state.
func (m *Multi) CkptLoad(r *ckpt.Reader) error {
	m.cfg.UtilTarget = r.F64()
	for k, c := range m.ctrls {
		if err := c.CkptLoad(r); err != nil {
			return err
		}
		hasTuner := r.Bool()
		if hasTuner != (m.tuners[k] != nil) {
			return fmt.Errorf("pid: ckpt: tuner presence mismatch on dimension %d", k)
		}
		if hasTuner {
			if err := m.tuners[k].CkptLoad(r); err != nil {
				return err
			}
		}
	}
	return r.Err()
}
