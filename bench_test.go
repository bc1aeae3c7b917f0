// Benchmarks regenerating every table and figure of the reconstructed
// evaluation (EXPERIMENTS.md). Each BenchmarkTableN / BenchmarkFigureN
// runs the full deterministic experiment once per iteration and reports
// its headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both regenerates the results and tracks the cost of producing them.
// cmd/evolve-bench renders the same tables and figures for reading.
package evolve_test

import (
	"io"
	"testing"
	"time"

	"evolve/internal/harness"
)

const benchSeed = 42

func BenchmarkTable1Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		tab, results, err := harness.Table1(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			ev := results["cloud/evolve"]
			st := results["cloud/static-2x"]
			b.ReportMetric(ev.OverallViolation()*100, "evolve-viol-%")
			b.ReportMetric(st.OverallViolation()*100, "static2x-viol-%")
			b.ReportMetric(ev.UsageOfAlloc, "evolve-usage/alloc")
		}
	}
}

func BenchmarkTable2MultiResource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		tab, err := harness.Table2(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Scheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		tab, err := harness.Table3(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := harness.Table4()
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1Diurnal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		fig, err := harness.Figure1(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2Tracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		fig, err := harness.Figure2(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3Step(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		fig, stats, err := harness.Figure3(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range stats {
				if s.Policy == "evolve" {
					b.ReportMetric(s.SettleAfter.Seconds(), "evolve-settle-s")
				}
			}
		}
	}
}

func BenchmarkFigure4Adaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Figure4(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5Converged(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		fig, err := harness.Figure5(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6Scalability(b *testing.B) {
	// One small point per shard count: the benchmark tracks kernel tick
	// cost without paying the full 1M-pod ladder per iteration.
	cfg := harness.ScaleConfig{
		Seed:   benchSeed,
		Shards: []int{1, 4},
		Points: []harness.ScalePoint{{Nodes: 500, Pods: 5000}},
		Ticks:  4,
	}
	for i := 0; i < b.N; i++ {
		fig, _, err := harness.Figure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7Frontier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		fig, err := harness.Figure7(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5CostEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		tab, err := harness.Table5(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8Failure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		fig, err := harness.Figure8(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9StartupDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		fig, err := harness.Figure9(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		fig, err := harness.Figure10(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		tab, err := harness.Table6(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11Bursts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: the benchmark measures real
		// simulation cost, not cache hits; fan-out still applies.
		r := harness.NewRunner(0)
		fig, err := harness.Figure11(r, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the two hot control-plane paths.

func BenchmarkControllerDecision(b *testing.B) {
	// One Decide on a realistic observation; the Table 4 scale sweep
	// lives in harness.MeasureDecisionLatency.
	d := harness.MeasureDecisionLatency(1, b.N)
	b.ReportMetric(float64(d.Nanoseconds()), "ns/decision")
}

func BenchmarkSimulatedClusterHour(b *testing.B) {
	// Cost of simulating one virtual hour of the cloud mix under the
	// full EVOLVE control loop.
	sc := harness.BuildScenario(harness.MixCloud, benchSeed)
	sc.Duration = time.Hour
	pol := harness.StandardPolicies()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run(sc, pol); err != nil {
			b.Fatal(err)
		}
	}
}
