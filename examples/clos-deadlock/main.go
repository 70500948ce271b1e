// clos-deadlock reproduces the paper's headline demonstration (Figures 3
// and 10): two loop-free flows on 1-bounce reroute paths create a cyclic
// buffer dependency and freeze the fabric; the same scenario under Tagger
// keeps both flows running.
package main

import (
	"fmt"

	tagger "repro"
	"repro/internal/telemetry"
)

func main() {
	fmt.Println("Figure 3/10: two 1-bounce flows on the testbed Clos")
	fmt.Println()

	fmt.Println("--- without Tagger ---")
	show(tagger.Figure10(false))

	fmt.Println()
	fmt.Println("--- with Tagger (bounce budget k=1, 2 lossless queues) ---")
	show(tagger.Figure10(true))
}

func show(res tagger.ExperimentResult) {
	if res.Deadlocked {
		fmt.Println("deadlock: the pause-wait cycle is exactly the paper's CBD:")
		for _, e := range res.Cycle {
			fmt.Printf("    %s\n", e)
		}
	} else {
		fmt.Println("no deadlock")
	}
	for _, f := range res.Flows {
		vals := make([]float64, len(f.Points))
		for i, p := range f.Points {
			vals[i] = p.Gbps
		}
		fmt.Printf("  %-6s %s late %.1f Gbps\n", f.Name, telemetry.Sparkline(vals, 40), f.LateGbps)
	}
}
