package harness

import (
	"strings"
	"testing"
	"time"

	"evolve/internal/cluster"
)

// TestTable8Reproducible is the bit-for-bit acceptance check for the
// crash-consistency sweep: the same seed, executed twice, must render
// byte-identical tables (text and CSV).
func TestTable8Reproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	render := func() (string, string) {
		tbl, err := Table8(nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		var txt, csv strings.Builder
		if err := tbl.Render(&txt); err != nil {
			t.Fatal(err)
		}
		if err := tbl.RenderCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return txt.String(), csv.String()
	}
	txt1, csv1 := render()
	txt2, csv2 := render()
	if txt1 != txt2 {
		t.Errorf("table 8 text differs between identical runs:\n--- first\n%s\n--- second\n%s", txt1, txt2)
	}
	if csv1 != csv2 {
		t.Error("table 8 CSV differs between identical runs")
	}
}

// TestTable8Shape pins the sweep dimensions (one no-crash baseline row
// plus intervals × crash windows) and that the crash rows actually went
// through an outage: the restarted controller needed at least one
// control period to rejoin the no-crash trajectory.
func TestTable8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	tbl, err := Table8(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 4*2; len(tbl.Rows) != want {
		t.Fatalf("table 8 has %d rows, want %d", len(tbl.Rows), want)
	}
	for i, row := range tbl.Rows[1:] {
		if row[5] == "0" || row[5] == "-" {
			t.Errorf("crash row %d (%s, %s) shows no recovery periods; the kill window never bit", i+1, row[0], row[1])
		}
	}
	var txt strings.Builder
	if err := tbl.Render(&txt); err != nil {
		t.Fatal(err)
	}
	if txt.Len() == 0 {
		t.Error("empty render")
	}
}

// TestTable8CellKeepsWholeRun guards the table against the facade's
// default retention window: every cell reads whole trajectories, so a
// cell's violation series must start at the first metrics tick and run
// to the horizon, one sample per tick.
func TestTable8CellKeepsWholeRun(t *testing.T) {
	cell, err := runCkptCell(1, ckptRun{every: 15 * time.Minute, crash: "ctrl-crash@38m-43m"})
	if err != nil {
		t.Fatal(err)
	}
	tick := cluster.DefaultConfig().MetricsInterval
	v := cell.viol
	if want := int(ckptTableHorizon / tick); len(v) != want || v[0].At != tick || v[len(v)-1].At != ckptTableHorizon {
		t.Fatalf("violation series holds %d samples from %v to %v, want %d from the first tick at %v to %v",
			len(v), v[0].At, v[len(v)-1].At, want, tick, ckptTableHorizon)
	}
}
