package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// ctrlPoints is the Figure 12 ladder as (apps, pods, 1-worker ms/period).
var ctrlPoints = []struct {
	apps, pods int
	ms         float64
}{
	{64, 512, 0.19}, {128, 1024, 0.43}, {256, 2048, 1.48}, {512, 4096, 3.04}, {512, 8192, 2.39},
}

// writeRecord writes a one-line bench record whose summary carries the
// given kernel and control-plane rows, and returns its path.
func writeRecord(t *testing.T, name string, scale, ctrl []map[string]any) string {
	t.Helper()
	line, err := json.Marshal(map[string]any{"id": "summary", "scale": scale, "ctrl_scale": ctrl})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// kernelRows is one fixed 1-shard kernel row, identical in both records.
func kernelRows() []map[string]any {
	return []map[string]any{{"nodes": 1000, "pods": 10000, "shards": 1, "ms_per_tick": 0.25, "speedup": 1.0}}
}

// bench15Ctrl builds control-plane rows shaped like BENCH_15: every
// point at ctrl_workers {1, 2, 4, 8} with a within-record speedup.
func bench15Ctrl() []map[string]any {
	var rows []map[string]any
	for _, p := range ctrlPoints {
		for _, w := range []int{1, 2, 4, 8} {
			ms := p.ms * (1 + 0.1*float64(w-1))
			rows = append(rows, map[string]any{
				"apps": p.apps, "pods": p.pods, "nodes": p.pods / 2, "ctrl_workers": w,
				"ms_per_period": ms, "eval_ms": ms / 2, "apply_ms": ms / 2, "speedup": p.ms / ms,
			})
		}
	}
	return rows
}

// currentCtrl builds control-plane rows in the current shape (no
// worker field), each point's ms/period scaled by factor(i).
func currentCtrl(factor func(i int) float64) []map[string]any {
	var rows []map[string]any
	for i, p := range ctrlPoints {
		ms := p.ms * factor(i)
		rows = append(rows, map[string]any{
			"apps": p.apps, "pods": p.pods, "nodes": p.pods / 2,
			"ms_per_period": ms, "eval_ms": ms / 2, "apply_ms": ms / 2,
		})
	}
	return rows
}

// runCompare runs the command on two records and returns stdout,
// stderr and the exit code.
func runCompare(t *testing.T, oldPath, newPath string) (string, string, int) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run([]string{"-old", oldPath, "-new", newPath}, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// TestCtrlRowsMatchAcrossWorkerField: a record without worker counts
// pairs with an old record's 1-worker rows on (apps, pods) — every
// point compared, the multi-worker rows listed as removed.
func TestCtrlRowsMatchAcrossWorkerField(t *testing.T) {
	oldPath := writeRecord(t, "old.json", kernelRows(), bench15Ctrl())
	newPath := writeRecord(t, "new.json", kernelRows(), currentCtrl(func(int) float64 { return 1.1 }))
	out, errOut, code := runCompare(t, oldPath, newPath)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, p := range ctrlPoints {
		if !containsRow(out, "ok", p.apps, p.pods) {
			t.Errorf("no compared row for %d apps / %d pods:\n%s", p.apps, p.pods, out)
		}
	}
	if got, want := strings.Count(out, "GONE "), 3*len(ctrlPoints); got != want {
		t.Errorf("%d GONE lines, want %d (one per multi-worker row):\n%s", got, want, out)
	}
	if !strings.Contains(out, "6 row(s) within 15% tolerance") {
		t.Errorf("summary line missing or miscounted:\n%s", out)
	}
}

// TestCtrlRowRegressionFails: a 1-worker control-plane row 20% slower
// than its baseline must fail the run, not go silently unmatched.
func TestCtrlRowRegressionFails(t *testing.T) {
	const slow = 3 // 512 apps / 4096 pods
	oldPath := writeRecord(t, "old.json", kernelRows(), bench15Ctrl())
	newPath := writeRecord(t, "new.json", kernelRows(), currentCtrl(func(i int) float64 {
		if i == slow {
			return 1.2
		}
		return 1
	}))
	out, errOut, code := runCompare(t, oldPath, newPath)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if p := ctrlPoints[slow]; !containsRow(out, "FAIL", p.apps, p.pods) {
		t.Errorf("no FAIL row for %d apps / %d pods:\n%s", p.apps, p.pods, out)
	}
	if strings.Count(out, "FAIL") != 1 {
		t.Errorf("want exactly one FAIL row:\n%s", out)
	}
	if !strings.Contains(errOut, "1 row(s) regressed beyond 15%") {
		t.Errorf("stderr = %q, want the regression count", errOut)
	}
}

// containsRow reports whether out has a control-plane line with the
// given status for (apps, pods).
func containsRow(out, status string, apps, pods int) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == status && f[1] == strconv.Itoa(apps) && f[2] == "apps" &&
			f[3] == strconv.Itoa(pods) && f[4] == "pods:" {
			return true
		}
	}
	return false
}
