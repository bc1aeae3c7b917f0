package world

import (
	"errors"
	"testing"
	"time"

	"evolve/internal/resource"
)

// TestDefaultNodeShape: the default shape is the one the facade
// documents for Options.NodeShape.
func TestDefaultNodeShape(t *testing.T) {
	v, err := resource.ParseVector("cpu=16 memory=64Gi diskio=1G netio=2G")
	if err != nil {
		t.Fatal(err)
	}
	if v != DefaultNodeShape() {
		t.Errorf("documented shape %v, DefaultNodeShape %v", v, DefaultNodeShape())
	}
}

// TestFailKeepsFirstAndStops: Fail keeps the first error and stops the
// engine at the failing instant.
func TestFailKeepsFirstAndStops(t *testing.T) {
	w, err := New(Config{Seed: 1, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, second := errors.New("first"), errors.New("second")
	w.Engine.At(3*time.Minute, func() { w.Fail(first) })
	w.Engine.At(4*time.Minute, func() { w.Fail(second) })
	w.Cluster.Start()
	w.Loop.Start()
	w.Cluster.Run(time.Hour)
	if w.Err() != first {
		t.Errorf("Err = %v, want %v", w.Err(), first)
	}
	if now := w.Engine.Now(); now != 3*time.Minute {
		t.Errorf("stopped at %v, want 3m", now)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	for _, cfg := range []Config{
		{Pools: []Pool{{Name: "", Count: 2}}},
		{Pools: []Pool{{Name: "p", Count: 0}}},
		{Nodes: 2, Chaos: "no-such-profile"},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded", cfg)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	for _, name := range []string{"", "evolve", "EVOLVE", "Evolve"} {
		if got, f, err := Policy(name); err != nil || got != "evolve" || f == nil {
			t.Errorf("Policy(%q) = %q, %v", name, got, err)
		}
	}
	for _, name := range PolicyNames() {
		if got, _, err := Policy(name); err != nil || got != name {
			t.Errorf("Policy(%q) = %q, %v", name, got, err)
		}
	}
}
