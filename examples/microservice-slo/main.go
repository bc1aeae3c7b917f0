// Microservice SLO showdown: the same disk-bound key-value store, hit by
// a flash crowd, under four resource-management policies. The KV store's
// bottleneck is disk bandwidth — which is exactly what a CPU-threshold
// autoscaler cannot see and the multi-resource EVOLVE controller can.
//
// Run with: go run ./examples/microservice-slo
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"evolve"
)

func main() {
	fmt.Println("policy        violations%   mean-SLI(ms)  verdict")
	fmt.Println("---------------------------------------------------------")
	for _, policy := range []string{"evolve", "pid-cpu-only", "hpa", "static"} {
		v, sli := run(policy)
		verdict := "holds the objective"
		if v > 0.10 {
			verdict = "misses the objective badly"
		} else if v > 0.02 {
			verdict = "struggles"
		}
		fmt.Printf("%-13s %-13.2f %-13.1f %s\n", policy, v*100, sli*1000, verdict)
	}
	fmt.Println("\nthe KV store is disk-bound: policies that only watch CPU miss the bottleneck")
}

func run(policy string) (violations, meanSLI float64) {
	const horizon = 90 * time.Minute
	// History covers the whole run so the EVOLVE_DUMP export below holds
	// every sample, not just the default retention window.
	c, err := evolve.New(evolve.Options{Seed: 21, Nodes: 5, Policy: policy, History: horizon})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.AddService(evolve.ServiceOptions{
		Name:      "kv",
		Archetype: "kvstore", // p99-latency objective, disk-I/O bound
		BaseRate:  200,
	}); err != nil {
		log.Fatal(err)
	}
	// Steady 200 op/s, then a 3x flash crowd for 20 minutes.
	if err := c.SetLoad("kv", evolve.FlashCrowd(200, 600, 30*time.Minute, 20*time.Minute)); err != nil {
		log.Fatal(err)
	}
	if err := c.Run(horizon); err != nil {
		log.Fatal(err)
	}
	v, err := c.Violations("kv")
	if err != nil {
		log.Fatal(err)
	}
	// Export the latency series for plotting when requested.
	if os.Getenv("EVOLVE_DUMP") != "" {
		f, err := os.Create("kv-" + policy + ".csv")
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := c.WriteSeriesCSV("app/kv/latency-p99", f); err != nil {
			log.Fatal(err)
		}
	}
	for _, s := range c.Report().Services {
		if s.Name == "kv" {
			return v, s.MeanSLI
		}
	}
	return v, 0
}
