package chaos

import "evolve/internal/ckpt"

// CkptSave writes the injector's mutable state: the Bernoulli stream
// position and the injection counters. The compiled plan is
// configuration — the restorer reconstructs it from the same spec.
func (inj *Injector) CkptSave(w *ckpt.Writer) {
	w.Begin("chaos")
	w.U64(inj.rng.Draws())
	w.U64(inj.stats.SamplesDropped)
	w.U64(inj.stats.SamplesFrozen)
	w.U64(inj.stats.SamplesSpiked)
	w.U64(inj.stats.Rejected)
	w.U64(inj.stats.Delayed)
	w.U64(inj.stats.Partial)
	w.U64(inj.stats.NodeCrashes)
	w.U64(inj.stats.NodeRestores)
	w.U64(inj.stats.CtrlCrashes)
	w.U64(inj.stats.CtrlRestarts)
}

// CkptLoad restores state written by CkptSave into an injector compiled
// from the same plan and seed.
func (inj *Injector) CkptLoad(r *ckpt.Reader) error {
	r.Begin("chaos")
	inj.rng.Seek(r.U64())
	inj.stats.SamplesDropped = r.U64()
	inj.stats.SamplesFrozen = r.U64()
	inj.stats.SamplesSpiked = r.U64()
	inj.stats.Rejected = r.U64()
	inj.stats.Delayed = r.U64()
	inj.stats.Partial = r.U64()
	inj.stats.NodeCrashes = r.U64()
	inj.stats.NodeRestores = r.U64()
	inj.stats.CtrlCrashes = r.U64()
	inj.stats.CtrlRestarts = r.U64()
	return r.Err()
}
