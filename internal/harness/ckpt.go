package harness

import (
	"fmt"
	"time"

	"evolve"
	"evolve/internal/control"
)

// Table 8 exercises the crash-consistency layer end to end, so unlike
// the other tables it runs on the public facade (the evolve package)
// where Checkpoint/Restore and the ctrl-crash chaos windows live, not
// on the harness's internal scenario runner.

const (
	// ckptTableWarmup is excluded from the violation statistics,
	// matching the chaos table's measurement discipline.
	ckptTableWarmup = 10 * time.Minute
	// ckptTableInterval is the control interval the recovery-period
	// column is denominated in (the facade default).
	ckptTableInterval = control.DefaultInterval
	// rejoinWindow is how long the crashed run's control trajectory
	// must track the no-crash run's before it counts as rejoined.
	rejoinWindow = 5 * time.Minute
	// ckptTableHorizon is every cell's run length; the cells retain
	// their telemetry for all of it, since the table reads whole
	// trajectories.
	ckptTableHorizon = 75 * time.Minute
)

// ckptRun is one cell of the Table 8 sweep.
type ckptRun struct {
	every time.Duration // checkpoint interval; 0 = checkpoints off
	crash string        // ctrl-crash plan clause; "" = no crash
}

// window parses the crash clause back into its [from, to) window.
func (cr ckptRun) window() (from, to time.Duration) {
	if cr.crash == "" {
		return -1, -1
	}
	var fm, tm int
	if _, err := fmt.Sscanf(cr.crash, "ctrl-crash@%dm-%dm", &fm, &tm); err != nil {
		return -1, -1
	}
	return time.Duration(fm) * time.Minute, time.Duration(tm) * time.Minute
}

// ckptCell is the outcome of one Table 8 run.
type ckptCell struct {
	viol   []evolve.SeriesSample // app/web/violation, tick cadence
	alloc  []evolve.SeriesSample // app/web/alloc/cpu — the controller's output
	ckpts  int
	meanKB float64
}

// runCkptCell runs the 75-minute diurnal web world of the chaos table
// under one (interval, crash) combination.
func runCkptCell(seed int64, cr ckptRun) (ckptCell, error) {
	c, err := evolve.New(evolve.Options{Seed: seed, Nodes: 4, Chaos: cr.crash, History: ckptTableHorizon})
	if err != nil {
		return ckptCell{}, err
	}
	if err := c.AddService(evolve.ServiceOptions{
		Name: "web", Archetype: "web", BaseRate: 600,
		LatencyObjective: 100 * time.Millisecond,
	}); err != nil {
		return ckptCell{}, err
	}
	if err := c.SetLoad("web", evolve.Diurnal(500, 1800, 40*time.Minute)); err != nil {
		return ckptCell{}, err
	}
	if cr.every > 0 {
		if err := c.EnableCheckpoints("", cr.every); err != nil {
			return ckptCell{}, err
		}
	}
	if err := c.Run(ckptTableHorizon); err != nil {
		return ckptCell{}, err
	}
	cell := ckptCell{}
	if cell.viol, err = c.SeriesSamples("app/web/violation"); err != nil {
		return ckptCell{}, err
	}
	if cell.alloc, err = c.SeriesSamples("app/web/alloc/cpu"); err != nil {
		return ckptCell{}, err
	}
	var bytes int64
	cell.ckpts, bytes = c.CheckpointStats()
	if cell.ckpts > 0 {
		cell.meanKB = float64(bytes) / float64(cell.ckpts) / 1024
	}
	return cell, nil
}

// violationFraction is the post-warmup mean of the violation indicator.
func (c ckptCell) violationFraction() float64 {
	sum, n := 0.0, 0
	for _, s := range c.viol {
		if s.At < ckptTableWarmup {
			continue
		}
		sum += s.Value
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// rejoinPeriods measures recovery as reconvergence: the number of
// control periods after the restart edge until the crashed run's
// CPU-allocation trajectory (the controller's output) tracks the no-crash
// baseline's for rejoinWindow straight. Both runs share the seed, so
// their series are sampled at identical tick timestamps and
// sample-wise comparison is exact. ok is false when the run never
// rejoins before the horizon — the residual divergence lasts to the
// end of the run.
func rejoinPeriods(got, base []evolve.SeriesSample, restartAt time.Duration) (periods float64, ok bool) {
	n := min(len(got), len(base))
	if n == 0 {
		return 0, false
	}
	start := 0
	for start < n && got[start].At < restartAt {
		start++
	}
	streakStart := -1
	for i := start; i < n; i++ {
		if got[i].Value != base[i].Value {
			streakStart = -1
			continue
		}
		if streakStart < 0 {
			streakStart = i
		}
		if got[i].At-got[streakStart].At >= rejoinWindow {
			return float64(got[streakStart].At-restartAt) / float64(ckptTableInterval), true
		}
	}
	// A trailing streak that runs to the horizon (just shorter than the
	// window) still marks the last divergence; no streak at all means
	// the runs were still diverged at the horizon.
	if streakStart >= 0 {
		return float64(got[streakStart].At-restartAt) / float64(ckptTableInterval), true
	}
	return float64(got[n-1].At-restartAt) / float64(ckptTableInterval), false
}

// Table8 is the crash-consistency table: checkpoint interval crossed
// with control-plane crash timing on the 75m diurnal web service. Each
// crash window kills the controller and restarts it from the last
// checkpoint (or cold, from its construction-time state, when
// checkpoints are off); the rows report what the outage cost — the SLO
// violation delta against the no-crash run and how many control
// periods the restarted controller needed to rejoin the no-crash
// trajectory — and what the checkpoints cost: how many were taken,
// their mean size, and the state window lost at the kill.
func Table8(r *Runner, seed int64) (*Table, error) {
	t := &Table{
		ID:    "Table 8",
		Title: "Crash-consistent recovery: checkpoint interval vs control-plane crash timing (75m diurnal web service)",
		Headers: []string{
			"ckpt every", "crash window", "ckpts", "mean ckpt KB",
			"lost window (s)", "recovery periods", "violations %",
			"Δ vs no-crash (pp)",
		},
		Notes: []string{
			"crash windows: 18m–23m spans the 20m diurnal peak (the controller dies holding a rising allocation); 38m–43m spans the 40m trough",
			"lost window = virtual time between the last controller checkpoint and the kill — the state the restart cannot recover",
			"recovery periods = 15s control periods after the restart until the per-replica CPU allocation tracks the no-crash run for 5m straight; '>' marks runs still diverged at the horizon",
			"ckpt every = off restarts the controller cold, from its construction-time state; PID integrals and safe-point history start over",
			"checkpoint cost is reported in deterministic units (count, bytes); wall-clock write/restore cost is machine-dependent (see make ckpt-soak)",
		},
	}
	intervals := []time.Duration{0, time.Minute, 5 * time.Minute, 15 * time.Minute}
	crashes := []string{"ctrl-crash@18m-23m", "ctrl-crash@38m-43m"}

	base, err := runCkptCell(seed, ckptRun{every: 5 * time.Minute})
	if err != nil {
		return nil, fmt.Errorf("table8 %w", err)
	}
	baseViolations := base.violationFraction()
	t.AddRow("5m", "none", base.ckpts, base.meanKB, "-", "-", baseViolations*100, "-")

	for _, every := range intervals {
		for _, crash := range crashes {
			cr := ckptRun{every: every, crash: crash}
			cell, err := runCkptCell(seed, cr)
			if err != nil {
				return nil, fmt.Errorf("table8 %w", err)
			}
			from, to := cr.window()
			lost := "-"
			if every > 0 {
				lost = fmt.Sprintf("%.0f", (from % every).Seconds())
			}
			label := "off"
			if every > 0 {
				label = fmt.Sprintf("%dm", int(every.Minutes()))
			}
			viol := cell.violationFraction()
			periods, rejoined := rejoinPeriods(cell.alloc, base.alloc, to)
			recovery := fmt.Sprintf("%.0f", periods)
			if !rejoined {
				recovery = fmt.Sprintf(">%.0f", periods)
			}
			t.AddRow(label, crash, cell.ckpts, cell.meanKB, lost,
				recovery, viol*100, (viol-baseViolations)*100)
		}
	}
	return t, nil
}
