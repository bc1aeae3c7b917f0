package harness

import "testing"

// TestFigure12Smoke drives a miniature control-plane sweep end to end:
// every point's row must come back timed, and the figure must carry one
// ms/period column with one value per point.
func TestFigure12Smoke(t *testing.T) {
	cfg := CtrlScaleConfig{
		Seed:    7,
		Points:  []CtrlScalePoint{{Apps: 8, PodsPerApp: 4, Nodes: 16}, {Apps: 12, PodsPerApp: 2, Nodes: 16}},
		Periods: 2,
	}
	fig, rows, err := Figure12(cfg)
	if err != nil {
		t.Fatalf("Figure12: %v", err)
	}
	if got, want := len(rows), len(cfg.Points); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
	for i, row := range rows {
		if row.MSPerPeriod <= 0 {
			t.Errorf("row %+v: ms/period not measured", row)
		}
		if row.EvalMS+row.ApplyMS <= 0 {
			t.Errorf("row %+v: eval/apply split not measured", row)
		}
		if row.Reps != scaleReps {
			t.Errorf("row %+v: reps = %d, want %d", row, row.Reps, scaleReps)
		}
		if pt := cfg.Points[i]; row.Apps != pt.Apps || row.Pods != pt.Apps*pt.PodsPerApp {
			t.Errorf("row %+v: apps/pods do not match point %+v", row, pt)
		}
	}
	if len(fig.Columns) != 1 {
		t.Errorf("figure columns = %v, want one", fig.Columns)
	}
	if len(fig.X) != len(cfg.Points) {
		t.Errorf("figure points = %d, want %d", len(fig.X), len(cfg.Points))
	}
}
