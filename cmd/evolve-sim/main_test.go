package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for evolve-sim: a child
// process started with EVOLVE_SIM_AS_MAIN=1 runs main with its own
// arguments, so flag parsing is exercised exactly as on the command line.
func TestMain(m *testing.M) {
	if os.Getenv("EVOLVE_SIM_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs evolve-sim with args in a child process and returns its
// combined output and exit code.
func runSim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EVOLVE_SIM_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	default:
		t.Fatalf("evolve-sim %v: %v", args, err)
		return "", 0
	}
}

// TestCtrlWorkersFlagRefused: -ctrl-workers went with the parallel
// control plane, so it must fail flag parsing (exit 2, named in the
// message) rather than be accepted and ignored. The same run without
// the flag succeeds, so the failure is the flag's alone.
func TestCtrlWorkersFlagRefused(t *testing.T) {
	out, code := runSim(t, "-ctrl-workers", "2", "-duration", "1m")
	if code != 2 || !strings.Contains(out, "flag provided but not defined: -ctrl-workers") {
		t.Errorf("-ctrl-workers: exit %d, output:\n%s\nwant exit 2 naming the undefined flag", code, out)
	}
	if out, code := runSim(t, "-duration", "1m"); code != 0 {
		t.Errorf("plain run: exit %d, output:\n%s", code, out)
	}
}

// report strips evolve-sim's own status lines from a run's output,
// leaving the report.
func report(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "evolve-sim:") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestCkptDirKeepsNewestTwo: a checkpoint directory holds only the two
// newest files, however long the run, and -resume from either of them
// finishes with the report of a run that never stopped.
func TestCkptDirKeepsNewestTwo(t *testing.T) {
	dir := t.TempDir()
	if out, code := runSim(t, "-duration", "10m", "-ckpt-dir", dir, "-ckpt-every", "1m"); code != 0 {
		t.Fatalf("checkpointed run: exit %d\n%s", code, out)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "ckpt-000000000540.evck"), filepath.Join(dir, "ckpt-000000000600.evck")}
	if !slices.Equal(files, want) {
		t.Fatalf("checkpoint dir holds %v, want %v", files, want)
	}
	saved := make([][]byte, len(want))
	for i, f := range want {
		if saved[i], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	whole, code := runSim(t, "-duration", "15m", "-ckpt-every", "1m")
	if code != 0 {
		t.Fatalf("uninterrupted run: exit %d\n%s", code, whole)
	}
	// Resume once with both files (the newest wins), once with only the
	// older one, each time into a fresh directory.
	for i, from := range []string{"10m", "9m"} {
		resumeDir := t.TempDir()
		for j, f := range want[:len(want)-i] {
			if err := os.WriteFile(filepath.Join(resumeDir, filepath.Base(f)), saved[j], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		resumed, code := runSim(t, "-duration", "15m", "-ckpt-dir", resumeDir, "-ckpt-every", "1m", "-resume")
		if code != 0 || !strings.Contains(resumed, "at t="+from) {
			t.Fatalf("resume: exit %d, want a restore at %s\n%s", code, from, resumed)
		}
		if report(resumed) != report(whole) {
			t.Errorf("resumed from %s:\n%s\nuninterrupted:\n%s", from, report(resumed), report(whole))
		}
	}
}
