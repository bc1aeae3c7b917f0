package main

import (
	"errors"
	"os"
	"os/exec"
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
