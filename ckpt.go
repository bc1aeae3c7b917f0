package evolve

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/cluster"
	"evolve/internal/sim"
)

// Crash-consistent checkpoint/restore for the whole simulated world.
//
// Checkpoint serialises, in a fixed section order, everything mutable,
// in the shape the running world holds it: the engine clock, RNG
// position and pending-timer set (as TimerTag descriptors — closures
// re-attach on restore), the kernel shard count, the batch runner, the
// HPC queue, the cluster substrate (whose metric history is one record
// per metrics frame), the hardened control loop, the chaos injector and
// the tracer rings. Format version 8; older files are refused.
// Restore runs against a freshly constructed Cluster built with the
// same Options and the same AddService / SetLoad / Submit* calls —
// construction-time configuration (topology, specs, load functions,
// callbacks) is code, not data, so only runtime state crosses the file
// boundary.
//
// The headline invariant, enforced by the determinism suite: checkpoint
// → restore → continue is byte-identical (report, trace and span
// streams) to the uninterrupted run, at every shard count, chaos on or
// off.

// EnableCheckpoints arms periodic checkpointing every interval of
// virtual time, starting at the first Run. Each firing snapshots the
// world at a tick barrier: the newest encoding is retained in memory
// (LastCheckpoint) and, when dir is non-empty, also written to
// dir/ckpt-<seconds>.evck (atomically, via rename), after which all but
// the newest two checkpoint files in dir are deleted. The firing also
// refreshes the controller-process state that ctrl-crash windows
// restore from — with checkpoints off, a crashed controller restarts
// from its construction-time state instead. Call before the first Run.
func (cl *Cluster) EnableCheckpoints(dir string, every time.Duration) error {
	if every <= 0 {
		return fmt.Errorf("evolve: non-positive checkpoint interval")
	}
	if cl.started {
		return fmt.Errorf("evolve: EnableCheckpoints must be called before Run")
	}
	if cl.ckptEvery > 0 {
		return fmt.Errorf("evolve: checkpoints already enabled")
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("evolve: checkpoint dir: %w", err)
		}
	}
	cl.ckptEvery, cl.ckptDir = every, dir
	return nil
}

// CheckpointStats reports how many periodic checkpoints have been
// written and their total encoded size.
func (cl *Cluster) CheckpointStats() (count int, bytes int64) {
	return cl.ckptCount, cl.ckptBytes
}

// LastCheckpoint returns a copy of the most recent periodic checkpoint
// encoding, or nil if none has been taken yet.
func (cl *Cluster) LastCheckpoint() []byte {
	if cl.lastCkpt == nil {
		return nil
	}
	return cl.lastCkpt.Bytes()
}

// captureLoopState refreshes the controller-process blob the ctrl-crash
// restore path uses (the control plane's own checkpoint file). A
// periodic firing refreshes it as it encodes the loop section instead.
func (cl *Cluster) captureLoopState() { cl.lastLoopState = cl.w.Loop.SaveState() }

// armCheckpoints schedules the periodic checkpoint timer. It is armed
// after the tick and loop timers (see start), so at shared timestamps a
// checkpoint observes the post-tick, post-decision state.
func (cl *Cluster) armCheckpoints() {
	if cl.ckptEvery <= 0 {
		return
	}
	cl.captureLoopState()
	cl.armNextCheckpoint()
}

// armNextCheckpoint self-schedules the next periodic firing. The timer
// is an After chain rather than an Every: checkpointTick re-arms BEFORE
// snapshotting, so every checkpoint carries its own successor timer and
// a restored run keeps the checkpoint cadence (an Every re-arms after
// the callback, which would leave the timer out of its own snapshot).
func (cl *Cluster) armNextCheckpoint() {
	cl.w.Engine.TagNext("ckpt", "")
	cl.w.Engine.After(cl.ckptEvery, cl.checkpointTick)
}

func (cl *Cluster) checkpointTick() {
	cl.armNextCheckpoint()
	cl.takeCheckpoint()
}

// takeCheckpoint is one periodic firing after its re-arm: it encodes the
// world into segments that become lastCkpt, keeping the controller-process
// state it encoded as the new restart point, and writes them to the
// checkpoint directory, if any.
// The segments reference the tracer rings' chunks instead of copying
// them, and the rest of the world is encoded into the buffers of the
// checkpoint before last, so a firing costs what changed in the rings
// plus the rest of the world. The previous checkpoint stays the restart
// point until this one is complete.
func (cl *Cluster) takeCheckpoint() {
	cw := ckpt.NewBufferWriter(cl.ckptSpare)
	if err := cl.encode(cw, true); err != nil {
		cl.w.Fail(fmt.Errorf("checkpoint at %v: %w", cl.w.Engine.Now(), err))
		return
	}
	segs := cw.Segments()
	// Nothing reads the replaced checkpoint again (LastCheckpoint
	// returns copies), so its buffers are the next firing's spares.
	cl.lastCkpt, cl.ckptBufs, cl.ckptSpare = segs, cw.Buffers(), cl.ckptBufs
	cl.ckptCount++
	cl.ckptBytes += int64(segs.Len())
	if cl.ckptDir == "" {
		return
	}
	name := filepath.Join(cl.ckptDir, fmt.Sprintf("ckpt-%012d.evck", int64(cl.w.Engine.Now()/time.Second)))
	if err := writeFileDurable(name, segs); err != nil {
		cl.w.Fail(fmt.Errorf("checkpoint write: %w", err))
		return
	}
	if err := pruneCheckpoints(cl.ckptDir); err != nil {
		cl.w.Fail(fmt.Errorf("checkpoint prune: %w", err))
	}
}

// keptCheckpoints is how many checkpoint files a directory keeps: the
// newest, and the one before it as a fallback restart point.
const keptCheckpoints = 2

// pruneCheckpoints deletes all but the newest keptCheckpoints files in
// dir, so a long run's checkpoint directory stays bounded on disk. It
// runs only after the newest file is durable.
func pruneCheckpoints(dir string) error {
	matches, err := checkpointFiles(dir)
	if err != nil {
		return err
	}
	for _, name := range matches[:max(0, len(matches)-keptCheckpoints)] {
		if err := os.Remove(name); err != nil {
			return err
		}
	}
	return nil
}

// checkpointFiles lists dir's checkpoint files oldest-first.
func checkpointFiles(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.evck"))
	sort.Strings(matches)
	return matches, err
}

// writeFileDurable replaces name with data so that a crash at any point
// leaves either the old file or the complete new one: it writes and
// syncs a temporary file, renames it over name, then syncs the
// directory so the rename itself survives power loss. A failure before
// the rename removes the temporary file.
func writeFileDurable(name string, data io.WriterTo) error {
	tmp := name + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = data.WriteTo(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, name)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: err is the failure to report
		return err
	}
	dir, err := os.Open(filepath.Dir(name))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// armCtrlCrash schedules the kill/restore windows of any ctrl-crash
// faults in the chaos plan. The injector itself cannot arm these — they
// need the control loop and the checkpoint store — so the facade does.
func (cl *Cluster) armCtrlCrash() {
	inj := cl.w.Cluster.Chaos()
	if inj == nil {
		return
	}
	crashes := inj.CtrlCrashes()
	if len(crashes) == 0 {
		return
	}
	// Without periodic checkpoints the controller restarts from its
	// construction-time state; capture it now.
	cl.captureLoopState()
	for i, f := range crashes {
		idx := strconv.Itoa(i)
		cl.w.Engine.TagNext("ctrl-crash", idx+"/kill")
		cl.w.Engine.At(f.From, func() {
			cl.w.Loop.Kill()
			inj.CountCtrlCrash()
			cl.w.Cluster.RecordEvent("ctrl-crash", "control-plane", "controller killed (injected fault)")
		})
		if f.To > f.From {
			cl.w.Engine.TagNext("ctrl-crash", idx+"/restore")
			cl.w.Engine.At(f.To, func() {
				if st := cl.lastLoopState; st != nil {
					if err := cl.w.Loop.LoadState(st); err != nil {
						cl.w.Fail(fmt.Errorf("controller restart: %w", err))
						return
					}
				}
				cl.w.Loop.Restart()
				inj.CountCtrlRestart()
				cl.w.Cluster.RecordEvent("ctrl-restart", "control-plane", "controller restarted from last checkpoint")
			})
		}
	}
}

// Checkpoint writes a crash-consistent snapshot of the world to w. The
// cluster must have started (checkpoints snapshot runtime state) and be
// at a tick barrier — any point between Run calls, or inside the
// periodic checkpoint timer, qualifies.
func (cl *Cluster) Checkpoint(w io.Writer) error {
	return cl.encode(ckpt.NewWriter(w), false)
}

// encode writes the world's sections to cw and closes it. A periodic
// encoding makes the controller-process state of its loop section the
// new restart point. The trailer holds the restart point: a flag when it
// is the loop section's state, as after every periodic encoding, else
// the older blob whole.
func (cl *Cluster) encode(cw *ckpt.Writer, periodic bool) error {
	if !cl.started {
		return fmt.Errorf("evolve: nothing to checkpoint before the first Run")
	}
	timers, err := cl.w.Engine.PendingTimers()
	if err != nil {
		return err
	}
	cw.Begin("evolve")
	cw.I64(cl.opts.Seed)
	cw.Str(cl.policy)
	cw.Dur(cl.opts.History)
	cw.Dur(cl.w.Engine.Now())
	cw.U64(cl.w.Engine.Seq())
	cw.U64(cl.w.Engine.Steps())
	cw.U64(cl.w.Engine.RNG().Draws())
	cw.Int(len(timers))
	for _, t := range timers {
		cw.Dur(t.At)
		cw.U64(t.Seq)
		cw.Str(t.Tag.Kind)
		cw.Str(t.Tag.Arg)
	}
	cw.Int(cl.w.Cluster.NumShards())
	cl.w.Runner.CkptSave(cw)
	cl.w.Queue.CkptSave(cw)
	cl.w.Cluster.CkptSave(cw)
	ctrlState := cl.w.Loop.CkptSave(cw)
	if periodic {
		cl.lastLoopState = ctrlState
	}
	inj := cl.w.Cluster.Chaos()
	cw.Bool(inj != nil)
	if inj != nil {
		inj.CkptSave(cw)
	}
	cw.Bool(cl.tracer.Enabled())
	if cl.tracer.Enabled() {
		cl.tracer.CkptSave(cw)
	}
	inLoop := bytes.Equal(cl.lastLoopState, ctrlState)
	cw.Bool(inLoop)
	if !inLoop {
		cw.Bytes(cl.lastLoopState)
	}
	return cw.Close()
}

// Restore rewinds a freshly constructed Cluster to a checkpoint taken
// by an identically constructed one: same Options, same AddService /
// SetLoad / SubmitBatchJob / SubmitHPCJob calls, same EnableTracing and
// EnableCheckpoints configuration. Construction carries the code-level
// world (topology, specs, closures); the checkpoint carries the runtime
// state; Restore marries the two and re-arms every pending timer with
// its original firing order. Continue with Run — the continuation is
// byte-identical to the uninterrupted original.
func (cl *Cluster) Restore(r io.Reader) error {
	var raw bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		raw.Grow(l.Len() + bytes.MinRead) // one allocation for in-memory sources
	}
	if _, err := raw.ReadFrom(r); err != nil {
		return fmt.Errorf("evolve: reading checkpoint: %w", err)
	}
	return cl.restore(raw.Bytes())
}

// restore decodes blob into the fresh cluster. The checksum is verified
// and the header checked against this cluster's options before the
// world starts, so a corrupt or foreign checkpoint leaves the cluster
// fresh for another Restore. The sections are decoded into the started
// world; a section that fails to decode (possible only for a blob whose
// checksum was recomputed after it was altered) leaves the world half
// restored, so the error is latched and every later Run returns it.
func (cl *Cluster) restore(blob []byte) (err error) {
	if cl.started {
		return fmt.Errorf("evolve: Restore needs a freshly constructed cluster")
	}
	cr, err := ckpt.NewReader(blob)
	if err != nil {
		return err
	}
	cr.Begin("evolve")
	if seed := cr.I64(); cr.Err() == nil && seed != cl.opts.Seed {
		return fmt.Errorf("evolve: checkpoint has seed %d, this cluster %d", seed, cl.opts.Seed)
	}
	if pol := cr.Str(); cr.Err() == nil && pol != cl.policy {
		return fmt.Errorf("evolve: checkpoint has policy %q, this cluster %q", pol, cl.policy)
	}
	if h := cr.Dur(); cr.Err() == nil && h != cl.opts.History {
		return fmt.Errorf("evolve: checkpoint has History %v, this cluster %v", h, cl.opts.History)
	}
	now := cr.Dur()
	seq := cr.U64()
	nsteps := cr.U64()
	draws := cr.U64()
	nt := cr.Count(32) // At, Seq and two string length prefixes
	if cr.Err() != nil {
		return cr.Err()
	}
	timers := make([]sim.PendingTimer, nt)
	for i := range timers {
		timers[i] = sim.PendingTimer{
			At:  cr.Dur(),
			Seq: cr.U64(),
			Tag: sim.TimerTag{Kind: cr.Str(), Arg: cr.Str()},
		}
	}
	// Each span's Shard field depends on the shard count, so a world
	// with another count cannot continue this one's span stream. Refused
	// before the world starts, so the cluster stays fresh.
	ns := cr.Int()
	if cr.Err() != nil {
		return cr.Err()
	}
	if ns != cl.w.Cluster.NumShards() {
		return fmt.Errorf("evolve: checkpoint has %d kernel shards, this cluster %d (Shards option)", ns, cl.w.Cluster.NumShards())
	}
	// Arm the fresh world's own timers first: RestoreTimers re-attaches
	// checkpoint timers to them by tag.
	cl.start()
	defer func() {
		if err != nil {
			cl.w.Fail(fmt.Errorf("restore: %w", err))
		}
	}()
	// Substrate order mirrors Checkpoint: batch and HPC load before the
	// cluster, whose task pods reattach their completion callbacks
	// through the restored runner and queue state.
	if err := cl.w.Runner.CkptLoad(cr); err != nil {
		return err
	}
	if err := cl.w.Queue.CkptLoad(cr); err != nil {
		return err
	}
	reattach := func(p *cluster.PodObject) (func(string, bool), error) {
		if fn, err := cl.w.Runner.ReattachTask(p.Name); err == nil {
			return fn, nil
		}
		return cl.w.Queue.ReattachRank(p.Name, p.Task.Job)
	}
	if err := cl.w.Cluster.CkptLoad(cr, reattach); err != nil {
		return err
	}
	// Whole-run means integrate up to the clock, so a clock before a
	// sample the checkpoint holds cannot be continued from.
	m := cl.w.Cluster.Metrics()
	for _, name := range m.SeriesNames() {
		if s, ok := m.Lookup(name).Last(); ok && s.At > now {
			return fmt.Errorf("evolve: checkpoint clock %v precedes the newest sample of %q at %v", now, name, s.At)
		}
	}
	ctrlState, err := cl.w.Loop.CkptLoad(cr)
	if err != nil {
		return err
	}
	inj := cl.w.Cluster.Chaos()
	if injPresent := cr.Bool(); injPresent != (inj != nil) {
		if cr.Err() != nil {
			return cr.Err()
		}
		return fmt.Errorf("evolve: checkpoint chaos plan does not match this cluster's Chaos option")
	}
	if inj != nil {
		if err := inj.CkptLoad(cr); err != nil {
			return err
		}
	}
	if trPresent := cr.Bool(); trPresent != cl.tracer.Enabled() {
		if cr.Err() != nil {
			return cr.Err()
		}
		return fmt.Errorf("evolve: checkpoint tracing does not match (call EnableTracing before Restore)")
	}
	if cl.tracer.Enabled() {
		if err := cl.tracer.CkptLoad(cr); err != nil {
			return err
		}
	}
	if cr.Bool() {
		cl.lastLoopState = ctrlState
	} else if blob := cr.Bytes(); len(blob) > 0 {
		cl.lastLoopState = blob
	}
	if err := cr.Close(); err != nil {
		return err
	}

	rebuild := func(tag sim.TimerTag) (func(), error) {
		switch tag.Kind {
		case "retry":
			return cl.w.Loop.RebuildTimer(tag.Kind, tag.Arg)
		case "task", "act-delay":
			return cl.w.Cluster.RebuildTimer(tag.Kind, tag.Arg)
		}
		return nil, fmt.Errorf("evolve: no rebuilder for timer %s/%s", tag.Kind, tag.Arg)
	}
	if err := cl.w.Engine.RestoreTimers(now, seq, nsteps, timers, rebuild); err != nil {
		return err
	}
	cl.w.Engine.RNG().Seek(draws)
	// After a restore, LastCheckpoint is the snapshot this world came
	// from, so a process that restores and then crashes again before the
	// next periodic checkpoint still has a valid restart point.
	cl.lastCkpt = ckpt.Segments{blob}
	return cl.err()
}

// RestoreFile restores from a checkpoint file (see EnableCheckpoints
// and LatestCheckpoint).
func (cl *Cluster) RestoreFile(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return cl.restore(blob)
}

// LatestCheckpoint returns the path of the newest checkpoint file in
// dir, as written by EnableCheckpoints.
func LatestCheckpoint(dir string) (string, error) {
	matches, err := checkpointFiles(dir)
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("evolve: no checkpoints in %s", dir)
	}
	return matches[len(matches)-1], nil
}
