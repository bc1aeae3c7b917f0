package evolve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"evolve/internal/ckpt"
)

// historyWorld is a small world for the retention checks: one noisy
// diurnal service per archetype, busy enough that the bounded event
// journal is full within the first two hours.
func historyWorld(t *testing.T, history time.Duration) *Cluster {
	t.Helper()
	c, err := New(Options{Seed: 12, Nodes: 3, History: history})
	if err != nil {
		t.Fatal(err)
	}
	for i, arch := range []string{"web", "gateway", "kvstore", "inference"} {
		if err := c.AddService(ServiceOptions{Name: arch, Archetype: arch, BaseRate: 100}); err != nil {
			t.Fatal(err)
		}
		if err := c.SetLoad(arch, Noisy(Diurnal(50, 200, time.Hour), 0.1, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestHistoryOption(t *testing.T) {
	if _, err := New(Options{History: -time.Second}); err == nil || !strings.Contains(err.Error(), "History") {
		t.Errorf("negative History: %v, want an error naming it", err)
	}
	c := historyWorld(t, 0)
	if err := c.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	s, err := c.SeriesSamples("app/web/sli")
	if err != nil {
		t.Fatal(err)
	}
	// The default window is 15 minutes: the samples after 45m, one per
	// 5s metrics tick.
	if len(s) != 180 || s[0].At != 45*time.Minute+5*time.Second || s[len(s)-1].At != time.Hour {
		t.Errorf("default window holds %d samples from %v to %v, want 180 from 45m5s to 1h", len(s), s[0].At, s[len(s)-1].At)
	}
}

// TestReportIndependentOfHistory: Report and /metrics read exact
// whole-run aggregates and the latest sample, so a one-minute window
// and a whole-run window give the same bytes.
func TestReportIndependentOfHistory(t *testing.T) {
	outputs := func(history time.Duration) (string, string) {
		c := historyWorld(t, history)
		if err := c.Run(90 * time.Minute); err != nil {
			t.Fatal(err)
		}
		var prom bytes.Buffer
		if err := c.WriteMetrics(&prom); err != nil {
			t.Fatal(err)
		}
		return c.Report().String(), prom.String()
	}
	shortRep, shortProm := outputs(time.Minute)
	wholeRep, wholeProm := outputs(90 * time.Minute)
	if shortRep != wholeRep {
		t.Errorf("Report depends on History:\n%s\nvs\n%s", shortRep, wholeRep)
	}
	if shortProm != wholeProm {
		t.Error("/metrics depends on History")
	}
}

// TestCheckpointHistoryAndVersion: the checkpoint header records
// History, so a world with another retention refuses it (and stays
// fresh), while 0 and the 15-minute default it stands for restore each
// other. A resealed checkpoint of an earlier format version (v3, or the
// per-series v4) is refused.
func TestCheckpointHistoryAndVersion(t *testing.T) {
	src := historyWorld(t, 0)
	if err := src.Run(20 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	wrong := historyWorld(t, 30*time.Minute)
	if err := wrong.Restore(bytes.NewReader(blob)); err == nil || !strings.Contains(err.Error(), "History") {
		t.Errorf("15m checkpoint into a 30m world: %v, want a History mismatch", err)
	}
	if wrong.started || wrong.Now() != 0 {
		t.Errorf("refused restore touched the cluster: started=%v now=%v", wrong.started, wrong.Now())
	}
	if err := historyWorld(t, 15*time.Minute).Restore(bytes.NewReader(blob)); err != nil {
		t.Errorf("History 0 checkpoint into an explicit 15m world: %v", err)
	}

	for _, v := range []uint32{3, 4} {
		old := bytes.Clone(blob)
		binary.LittleEndian.PutUint32(old[len(ckpt.Magic):], v)
		ckpt.Seal(old)
		want := fmt.Sprintf("format version %d (this build reads 5)", v)
		if err := historyWorld(t, 0).Restore(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("v%d checkpoint: %v, want %q", v, err, want)
		}
	}
}

// TestStateBoundedByHistory: at the default History, a small world's
// checkpoint and live heap after 8 hours are within 10% of those after
// 2 hours — metric history no longer grows with the horizon.
func TestStateBoundedByHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("8 simulated hours")
	}
	c := historyWorld(t, 0)
	measure := func(until time.Duration) (ckptBytes, heap uint64) {
		if err := c.Run(until - c.Now()); err != nil {
			t.Fatal(err)
		}
		var n countWriter
		if err := c.Checkpoint(&n); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return uint64(n), ms.HeapAlloc
	}
	ckpt2, heap2 := measure(2 * time.Hour)
	ckpt8, heap8 := measure(8 * time.Hour)
	t.Logf("checkpoint %d → %d bytes, live heap %d → %d bytes from 2h to 8h", ckpt2, ckpt8, heap2, heap8)
	within := func(a, b uint64) bool { return float64(b) <= 1.1*float64(a) && float64(a) <= 1.1*float64(b) }
	if !within(ckpt2, ckpt8) {
		t.Errorf("checkpoint %d bytes at 2h, %d at 8h: want within 10%%", ckpt2, ckpt8)
	}
	if !within(heap2, heap8) {
		t.Errorf("live heap %d bytes at 2h, %d at 8h: want within 10%%", heap2, heap8)
	}
	runtime.KeepAlive(c)
}
