// Command e2e is the repository's end-to-end benchmark: six workloads
// that between them walk a fabric from topology through ELP, Algorithms
// 1 and 2, rules, TCAM image, bundle and two-phase deploy to packet
// simulation, trace capture and forensics. See ../README.md.
//
// With -workload it performs one run of that workload in this process
// and prints one JSON result line last on standard output: the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
// Without it, it runs every workload both ways, each run in a fresh
// child process, prints every metric and writes the result set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	workload := flag.String("workload", "", "run only this workload, in this process (default: all, each in a child process)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 24, "length of the timed loop of one run; the traced run of a full set takes a quarter of it")
	trace := flag.Int("trace", 0, "with -workload: 1 records spans and reports per-layer metrics, 0 reports end-to-end metrics")
	repeat := flag.Int("repeat", 1, "without -workload: run the whole set this many times and judge the spread")
	out := flag.String("out", "results/e2e.json", "without -workload: where to write the result set")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// One client drives every workload; four threads is what the
	// parallel synthesis stages and the trace writer can use, and a
	// fixed cap keeps numbers from different machines comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *workload == "" {
		ok, err := runAll(*seed, *seconds, *repeat, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	def, found := findWorkload(*workload)
	if !found {
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, err := runWorkload(def, runConfig{
		seed: *seed, seconds: *seconds, trace: *trace != 0, sz: fullSizes, spanDir: "results",
	}, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
