package sim

import (
	"container/heap"
	"fmt"
	"sort"
)

// Checkpoint support for the kernel. A deterministic snapshot needs three
// things from the engine: the clock counters (now, seq, nsteps), the RNG
// stream position (RNG.Draws/Burn), and the set of pending timers. Timers
// carry closures, which cannot be serialised — instead every long-lived
// timer is tagged with a TimerTag naming what it is, the checkpoint
// records (at, seq, tag) triples, and the restore re-attaches behaviour
// by matching tags against the freshly constructed world's own timers
// (or a rebuild callback for timers the fresh world does not re-arm).
// Preserving the original seq values is what makes the restored run
// byte-identical: heap order among same-timestamp events is (at, seq).

// TimerTag names a pending timer for checkpointing. Kind identifies the
// timer family ("tick", "loop", "retry", ...); Arg disambiguates within
// the family (an app name, a counter). The zero tag marks an untagged
// event, which PendingTimers rejects — every schedule site that can be
// live at a checkpoint barrier must tag itself via TagNext.
type TimerTag struct {
	Kind string
	Arg  string
}

// TagNext attaches tag to the next event scheduled on the engine (via
// At, After or Every). For Every the tag is carried across every
// re-arm, so the periodic process keeps one identity for its lifetime.
func (e *Engine) TagNext(kind, arg string) {
	e.pendingTag = TimerTag{Kind: kind, Arg: arg}
}

// PendingTimer is one live timer in a checkpoint: its absolute firing
// time, its original sequence number (the same-timestamp tie-breaker)
// and its identity tag.
type PendingTimer struct {
	At  Time
	Seq uint64
	Tag TimerTag
}

// PendingTimers returns every live timer sorted in firing order. It
// errors on an untagged or duplicate-tagged live event: both mean a
// schedule site the checkpoint layer cannot account for, which would
// silently break restore.
func (e *Engine) PendingTimers() ([]PendingTimer, error) {
	out := make([]PendingTimer, 0, e.live)
	seen := make(map[TimerTag]bool, e.live)
	for _, ev := range e.events {
		if ev.dead {
			continue
		}
		if ev.tag == (TimerTag{}) {
			return nil, fmt.Errorf("sim: unaccounted (untagged) timer at %v seq %d", ev.at, ev.seq)
		}
		if seen[ev.tag] {
			return nil, fmt.Errorf("sim: duplicate timer tag %s/%s", ev.tag.Kind, ev.tag.Arg)
		}
		seen[ev.tag] = true
		out = append(out, PendingTimer{At: ev.at, Seq: ev.seq, Tag: ev.tag})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out, nil
}

// RestoreTimers rewinds a freshly constructed engine to a checkpoint:
// clock counters are set to (now, seq, nsteps) and the pending event set
// is replaced by timers, each restored with its original (at, seq) so
// heap order is exactly the checkpointed order. Behaviour re-attaches by
// tag: a checkpoint timer whose tag matches a live timer on the fresh
// engine reuses that timer's callback (the fresh world armed the same
// logical timer at construction); an unmatched checkpoint timer gets its
// callback from rebuild. Fresh timers with no checkpoint counterpart are
// dropped — they already fired in the checkpointed timeline. Dropped
// event structs have their generation bumped so stale Cancelers held by
// the fresh world are safe no-ops.
func (e *Engine) RestoreTimers(now Time, seq, nsteps uint64, timers []PendingTimer, rebuild func(TimerTag) (func(), error)) error {
	avail := make(map[TimerTag]func(), e.live)
	for _, ev := range e.events {
		if ev.dead || ev.tag == (TimerTag{}) {
			continue
		}
		if _, dup := avail[ev.tag]; dup {
			return fmt.Errorf("sim: restore: duplicate live tag %s/%s on fresh engine", ev.tag.Kind, ev.tag.Arg)
		}
		avail[ev.tag] = ev.fn
	}
	// Drop the fresh heap. Bumping gen invalidates any Canceler the fresh
	// world captured for these structs; the structs go back to the free
	// list for reuse below.
	for _, ev := range e.events {
		ev.dead = true
		e.recycle(ev)
	}
	e.events = e.events[:0]
	e.live = 0

	for _, pt := range timers {
		if pt.At < now {
			return fmt.Errorf("sim: restore: timer %s/%s at %v before checkpoint time %v", pt.Tag.Kind, pt.Tag.Arg, pt.At, now)
		}
		fn, ok := avail[pt.Tag]
		if !ok {
			if rebuild == nil {
				return fmt.Errorf("sim: restore: no rebuilder for timer %s/%s", pt.Tag.Kind, pt.Tag.Arg)
			}
			var err error
			fn, err = rebuild(pt.Tag)
			if err != nil {
				return fmt.Errorf("sim: restore: timer %s/%s: %w", pt.Tag.Kind, pt.Tag.Arg, err)
			}
		}
		var ev *event
		if n := len(e.free); n > 0 {
			ev = e.free[n-1]
			e.free[n-1] = nil
			e.free = e.free[:n-1]
		} else {
			ev = &event{}
		}
		ev.at, ev.seq, ev.fn, ev.dead, ev.tag = pt.At, pt.Seq, fn, false, pt.Tag
		e.events = append(e.events, ev)
		e.live++
	}
	heap.Init(&e.events)
	e.now, e.seq, e.nsteps = now, seq, nsteps
	return nil
}

// Seq returns the next event sequence number — part of the clock state a
// checkpoint records (same-timestamp ordering flows through it).
func (e *Engine) Seq() uint64 { return e.seq }
