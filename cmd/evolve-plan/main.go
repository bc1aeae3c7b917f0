// Command evolve-plan is a capacity planner: it answers "how many nodes
// does this workload need" by bisecting the cluster size and running the
// full deterministic simulation at each candidate, under a chosen
// resource-management policy. Because a 2-hour virtual scenario simulates
// in milliseconds, exhaustive what-if planning is interactive.
//
// Examples:
//
//	evolve-plan -services web:400,kvstore:200
//	evolve-plan -policy static -overprovision 3 -services web:400
//	evolve-plan -hpc 12 -batch 6 -services web:400,gateway:300
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"evolve/internal/harness"
	"evolve/internal/hpc"
	"evolve/internal/workload"
	"evolve/internal/world"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "scenario seed")
		policy   = flag.String("policy", "evolve", "resource policy: "+strings.Join(world.PolicyNames(), ", "))
		overprov = flag.Float64("overprovision", 1, "initial-allocation factor (static users set 2-3)")
		services = flag.String("services", "web:400,gateway:300,kvstore:200",
			"comma-separated archetype:baseRate list, driven by 0.5x..3x diurnals")
		batchN   = flag.Int("batch", 0, "TeraSort-like DAG jobs streamed in")
		hpcN     = flag.Int("hpc", 0, "rigid gang jobs streamed in")
		maxViol  = flag.Float64("max-violations", 0.02, "acceptable PLO violation fraction")
		maxNodes = flag.Int("max-nodes", 64, "upper bound of the search")
		duration = flag.Duration("duration", 2*time.Hour, "virtual horizon per probe")
	)
	flag.Parse()

	apps, err := parseServices(*services, *seed)
	if err != nil {
		fatal(err)
	}
	mkScenario := func(nodes int) harness.Scenario {
		sc := harness.Scenario{
			Name:         "plan",
			Seed:         *seed,
			Nodes:        nodes,
			NodeCapacity: world.DefaultNodeShape(),
			Duration:     *duration,
			Warmup:       *duration / 12,
			Apps:         apps,
			HPCPolicy:    hpc.Backfill,
		}
		if *batchN > 0 {
			sc.BatchJobs = harness.BatchStream(*batchN, *duration/time.Duration(*batchN+1), 2)
		}
		if *hpcN > 0 {
			sc.HPCJobs = harness.HPCStream(*hpcN, *duration/time.Duration(*hpcN+1), 6)
		}
		return sc
	}
	name, factory, err := world.Policy(*policy)
	if err != nil {
		fatal(err)
	}
	pol := harness.Policy{Name: name, Factory: factory, Overprovision: *overprov}

	// A candidate is feasible when violations stay under the budget and
	// all streamed jobs complete.
	probe := func(nodes int) (bool, *harness.Result) {
		res, err := harness.Run(mkScenario(nodes), pol)
		if err != nil {
			// Too small to even place the initial replicas ⇒ infeasible.
			return false, nil
		}
		ok := res.OverallViolation() <= *maxViol &&
			res.BatchCompleted >= *batchN &&
			res.HPCCompleted >= *hpcN
		return ok, res
	}

	lo, hi := 1, *maxNodes
	if ok, res := probe(hi); !ok {
		if res != nil {
			fatal(fmt.Errorf("even %d nodes cannot meet the objectives (violations %.2f%% > budget %.2f%%, batch %d/%d, hpc %d/%d); capacity is not the binding constraint — relax -max-violations or change the policy",
				hi, res.OverallViolation()*100, *maxViol*100, res.BatchCompleted, *batchN, res.HPCCompleted, *hpcN))
		}
		fatal(fmt.Errorf("even %d nodes cannot place the workload; raise -max-nodes", hi))
	}
	for lo < hi {
		mid := (lo + hi) / 2
		ok, res := probe(mid)
		status := "infeasible"
		if ok {
			status = "ok"
			hi = mid
		} else {
			lo = mid + 1
		}
		if res != nil {
			fmt.Fprintf(os.Stderr, "evolve-plan: %2d nodes → violations %.2f%%, cpu alloc %.0f%%, $%.2f  [%s]\n",
				mid, res.OverallViolation()*100, res.AllocFraction.Get(0)*100, res.Dollars, status)
		} else {
			fmt.Fprintf(os.Stderr, "evolve-plan: %2d nodes → unplaceable  [infeasible]\n", mid)
		}
	}
	_, res := probe(lo)
	fmt.Printf("minimum nodes: %d\n", lo)
	if res != nil {
		fmt.Printf("at that size:  violations %.2f%%, cpu allocated %.0f%%, used %.0f%%, bill $%.2f per %v, energy %.0f Wh\n",
			res.OverallViolation()*100,
			res.AllocFraction.Get(0)*100, res.UsageFraction.Get(0)*100,
			res.Dollars, *duration, res.WattHour)
	}
}

func parseServices(spec string, seed int64) ([]harness.AppLoad, error) {
	var apps []harness.AppLoad
	idx := int64(0)
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.SplitN(item, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad service %q (want archetype:baseRate)", item)
		}
		base, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || base <= 0 {
			return nil, fmt.Errorf("bad base rate in %q", item)
		}
		arch, err := workload.ParseArchetype(parts[0])
		if err != nil {
			return nil, err
		}
		apps = append(apps, harness.AppLoad{
			Spec: workload.Service(arch, fmt.Sprintf("%s-%d", arch, idx), base, 2),
			Pattern: workload.Noisy{
				Inner: workload.Diurnal{Trough: base * 0.5, Peak: base * 3, Period: 2 * time.Hour},
				Frac:  0.08, Seed: seed + idx,
			},
		})
		idx++
	}
	if len(apps) == 0 {
		return nil, fmt.Errorf("no services given")
	}
	return apps, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evolve-plan:", err)
	os.Exit(1)
}
