package evolve

import (
	"strings"
	"testing"
	"time"
)

const sampleConfig = `{
  "seed": 9, "nodes": 4, "policy": "evolve", "durationMinutes": 30,
  "services": [
    {"name": "web", "archetype": "web", "baseRate": 300,
     "latencyObjectiveMs": 100,
     "load": {"kind": "diurnal", "trough": 150, "peak": 900,
              "periodMinutes": 60, "noise": 0.05}},
    {"name": "kv", "archetype": "kvstore", "baseRate": 150,
     "load": {"kind": "constant"}}
  ],
  "batch": [{"name": "etl", "scale": 0.5, "submitAtMinutes": 2}],
  "hpc":   [{"name": "sim", "ranks": 2, "submitAtMinutes": 3}]
}`

func TestNewFromConfigEndToEnd(t *testing.T) {
	c, dur, err := NewFromConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	if dur != 30*time.Minute {
		t.Errorf("duration = %v", dur)
	}
	if err := c.Run(dur); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if len(rep.Services) != 2 {
		t.Fatalf("services = %d", len(rep.Services))
	}
	if rep.BatchJobsCompleted != 1 || rep.HPCJobsCompleted != 1 {
		t.Errorf("jobs: %+v", rep)
	}
	for _, s := range rep.Services {
		if s.ViolationFraction > 0.1 {
			t.Errorf("service %s violations = %.3f", s.Name, s.ViolationFraction)
		}
	}
}

func TestNewFromConfigPools(t *testing.T) {
	cfg := `{
	  "seed": 2, "durationMinutes": 10,
	  "pools": [{"name": "svc", "nodes": 2}, {"name": "hpc", "nodes": 2}],
	  "services": [{"name": "web", "baseRate": 100, "pool": "svc",
	                "load": {"kind": "constant"}}],
	  "hpc": [{"name": "sim", "ranks": 2, "submitAtMinutes": 1, "pool": "hpc"}]
	}`
	c, dur, err := NewFromConfig(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(dur); err != nil {
		t.Fatal(err)
	}
	if s, _ := c.HPCStatus("sim"); s != "done" {
		t.Errorf("pooled hpc job = %s", s)
	}
}

func TestNewFromConfigErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"durationMinutes": 10}`, // no workload
		`{"services": [{"name": "x", "baseRate": 0}]}`,                             // bad service
		`{"services": [{"name": "x", "baseRate": 1, "load": {"kind": "zigzag"}}]}`, // bad load kind
		`{"unknownField": true, "services": []}`,                                   // unknown field
		`{"policy": "magic", "services": [{"name":"x","baseRate":1}]}`,
	}
	for i, cfg := range cases {
		if _, _, err := NewFromConfig(strings.NewReader(cfg)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestNewFromConfigRefusesCtrlWorkers: the config file's "ctrlWorkers"
// key went with the parallel control plane; a file that still carries
// it must be refused by name, not silently ignored.
func TestNewFromConfigRefusesCtrlWorkers(t *testing.T) {
	for _, v := range []string{"0", "1", "4"} {
		cfg := `{"ctrlWorkers": ` + v + `, "services": [{"name": "x", "baseRate": 1}]}`
		_, _, err := NewFromConfig(strings.NewReader(cfg))
		if err == nil || !strings.Contains(err.Error(), "ctrlWorkers") {
			t.Errorf("ctrlWorkers=%s: err = %v, want an unknown-field error naming ctrlWorkers", v, err)
		}
	}
}

func TestBuildLoadShapes(t *testing.T) {
	fn, err := buildLoad(LoadConfig{Kind: "step", Before: 10, After: 30, AtMinutes: 5}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fn(time.Minute) != 10 || fn(6*time.Minute) != 30 {
		t.Error("step load wrong")
	}
	fn, err = buildLoad(LoadConfig{Kind: "flash", AtMinutes: 10, LengthMinutes: 5}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fn(12*time.Minute) != 300 || fn(20*time.Minute) != 100 {
		t.Error("flash defaults wrong")
	}
	// Defaults: diurnal trough/peak derived from base.
	fn, err = buildLoad(LoadConfig{Kind: "diurnal"}, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fn(0) != 100 {
		t.Errorf("diurnal trough default = %v", fn(0))
	}
}
