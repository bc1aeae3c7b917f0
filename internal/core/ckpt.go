package core

import (
	"evolve/internal/ckpt"
	"evolve/internal/control"
	"evolve/internal/obs"
	"evolve/internal/resource"
)

// Checkpoint serialisation for the EVOLVE controllers (the control
// loop's StateSaver hook). Configuration is reconstructed; only state
// accumulated by Decide is written.

// CkptSave implements control.StateSaver.
func (a *Autoscaler) CkptSave(w *ckpt.Writer) {
	a.multi.CkptSave(w)
	a.model.perOp.CkptSave(w)
	w.F64(a.model.mem)
	w.Int(a.model.samples)
	w.Int(a.scaleInStreak)
	w.Int(a.decisions)
	a.reason.CkptSave(w)
	obs.SaveControlTrace(w, a.lastTrace)
	w.F64(a.effUtil)
}

// CkptLoad implements control.StateSaver.
func (a *Autoscaler) CkptLoad(r *ckpt.Reader) error {
	if err := a.multi.CkptLoad(r); err != nil {
		return err
	}
	a.model.perOp = resource.LoadVector(r)
	a.model.mem = r.F64()
	a.model.samples = r.Int()
	a.scaleInStreak = r.Int()
	a.decisions = r.Int()
	reason, err := control.LoadReason(r)
	if err != nil {
		return err
	}
	a.reason = reason
	a.lastTrace = obs.LoadControlTrace(r)
	a.effUtil = r.F64()
	return r.Err()
}

// CkptSave implements control.StateSaver.
func (s *SingleResource) CkptSave(w *ckpt.Writer) {
	s.ctrl.CkptSave(w)
	s.tun.CkptSave(w)
	obs.SaveControlTrace(w, s.lastTrace)
}

// CkptLoad implements control.StateSaver.
func (s *SingleResource) CkptLoad(r *ckpt.Reader) error {
	if err := s.ctrl.CkptLoad(r); err != nil {
		return err
	}
	if err := s.tun.CkptLoad(r); err != nil {
		return err
	}
	s.lastTrace = obs.LoadControlTrace(r)
	return r.Err()
}
